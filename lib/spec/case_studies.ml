(* Mine pump task codes: minimal plausible C bodies so that generated
   programs are self-contained; the paper takes the real bodies from
   the HRT-HOOD case study. *)
let mine_code name body =
  Some (Printf.sprintf "/* %s */\n%s" name body)

let mine_task ?code ~name ~wcet ~deadline ~period () =
  Task.make ~name ~wcet ~deadline ~period
    ?code ~mode:Task.Non_preemptive ()

let mine_pump =
  let tasks =
    [
      mine_task ~name:"PMC" ~wcet:10 ~deadline:20 ~period:80
        ?code:(mine_code "pump motor control" "pump_set(pump_command());") ();
      mine_task ~name:"WFC" ~wcet:15 ~deadline:500 ~period:500
        ?code:(mine_code "water flow check" "check_water_flow();") ();
      mine_task ~name:"RLWH" ~wcet:1 ~deadline:1000 ~period:1000
        ?code:(mine_code "read low water handler" "read_low_water_sensor();") ();
      mine_task ~name:"CH4H" ~wcet:25 ~deadline:500 ~period:500
        ?code:(mine_code "methane handler" "handle_ch4_level();") ();
      mine_task ~name:"CH4S" ~wcet:5 ~deadline:100 ~period:500
        ?code:(mine_code "methane sensor" "sample_ch4();") ();
      mine_task ~name:"COH" ~wcet:15 ~deadline:100 ~period:2500
        ?code:(mine_code "carbon monoxide handler" "handle_co_level();") ();
      mine_task ~name:"AFH" ~wcet:15 ~deadline:200 ~period:6000
        ?code:(mine_code "air flow handler" "handle_air_flow();") ();
      mine_task ~name:"WFH" ~wcet:15 ~deadline:300 ~period:500
        ?code:(mine_code "water flow handler" "handle_water_flow();") ();
      mine_task ~name:"PDL" ~wcet:15 ~deadline:500 ~period:500
        ?code:(mine_code "pump data logger" "log_pump_data();") ();
      mine_task ~name:"SDL" ~wcet:10 ~deadline:500 ~period:500
        ?code:(mine_code "sensor data logger" "log_sensor_data();") ();
    ]
  in
  Spec.make ~name:"mine-pump" ~tasks ()

let fig3_precedence =
  let t1 = Task.make ~name:"T1" ~wcet:15 ~deadline:100 ~period:250 () in
  let t2 = Task.make ~name:"T2" ~wcet:20 ~deadline:150 ~period:250 () in
  Spec.make ~name:"fig3-precedence" ~tasks:[ t1; t2 ]
    ~precedences:[ ("T1", "T2") ] ()

let fig4_exclusion =
  let t0 =
    Task.make ~name:"T0" ~wcet:10 ~deadline:100 ~period:250
      ~mode:Task.Preemptive ()
  in
  let t2 =
    Task.make ~name:"T2" ~wcet:20 ~deadline:150 ~period:250
      ~mode:Task.Preemptive ()
  in
  Spec.make ~name:"fig4-exclusion" ~tasks:[ t0; t2 ]
    ~exclusions:[ ("T0", "T2") ] ()

(* Four preemptive tasks with tight short-deadline interferers so that
   the feasible schedule must preempt and resume, as in Fig 8. *)
let fig8_preemptive =
  let task = Task.make ~mode:Task.Preemptive in
  Spec.make ~name:"fig8-preemptive"
    ~tasks:
      [
        task ~name:"TaskA" ~wcet:8 ~deadline:30 ~period:30 ();
        task ~name:"TaskB" ~wcet:6 ~deadline:12 ~period:15 ();
        task ~name:"TaskC" ~wcet:2 ~deadline:4 ~period:10 ();
        task ~name:"TaskD" ~wcet:1 ~deadline:30 ~period:30 ();
      ]
    ()

let quickstart =
  let sample =
    Task.make ~name:"sample" ~wcet:2 ~deadline:10 ~period:20
      ~code:"adc_read(&sample_buffer);" ()
  in
  let filter =
    Task.make ~name:"filter" ~wcet:4 ~deadline:16 ~period:20
      ~code:"fir_filter(sample_buffer, filtered);" ()
  in
  let actuate =
    Task.make ~name:"actuate" ~wcet:3 ~deadline:20 ~period:20
      ~code:"dac_write(filtered[0]);" ()
  in
  Spec.make ~name:"quickstart" ~tasks:[ sample; filter; actuate ]
    ~precedences:[ ("sample", "filter"); ("filter", "actuate") ]
    ()

(* At t=0 only [background] is ready, so any work-conserving scheduler
   starts it; [urgent] then arrives at t=1 with a window that closes at
   t=2, inside the non-preemptive background computation.  The only
   feasible schedules leave the processor idle at t=0. *)
let greedy_trap =
  Spec.make ~name:"greedy-trap"
    ~tasks:
      [
        Task.make ~name:"background" ~wcet:3 ~deadline:20 ~period:20 ();
        Task.make ~name:"urgent" ~phase:1 ~wcet:3 ~deadline:4 ~period:20 ();
      ]
    ()

(* Eight tasks, hyper-period 200.  The gyro drives the attitude filter
   over CAN; the controller commands the servos over the same bus; the
   tuner and the controller share a gain table (exclusion). *)
let flight_control =
  let np = Task.make ~mode:Task.Non_preemptive in
  let p = Task.make ~mode:Task.Preemptive in
  Spec.make ~name:"flight-control"
    ~tasks:
      [
        np ~name:"gyro" ~wcet:2 ~deadline:10 ~period:50
          ~code:"gyro_read(&rates);" ();
        p ~name:"attitude" ~wcet:8 ~deadline:40 ~period:50 ~energy:4
          ~code:"kalman_update(&rates, &att);" ();
        p ~name:"control" ~wcet:6 ~deadline:50 ~period:50 ~energy:3
          ~code:"pid_attitude(&att, &cmd);" ();
        np ~name:"servo" ~wcet:2 ~deadline:50 ~period:50
          ~code:"servo_apply(&cmd);" ();
        np ~name:"baro" ~wcet:3 ~deadline:100 ~period:100
          ~code:"baro_sample(&alt);" ();
        p ~name:"tuner" ~wcet:5 ~deadline:200 ~period:200
          ~code:"gain_schedule(&att);" ();
        np ~name:"telemetry" ~wcet:7 ~deadline:200 ~period:200 ~phase:20
          ~code:"telemetry_pack();" ();
        np ~name:"watchdog" ~wcet:1 ~deadline:25 ~period:25
          ~code:"wdt_kick();" ();
      ]
    ~messages:
      [
        Message.make ~name:"gyro_frame" ~sender:"gyro" ~receiver:"attitude"
          ~bus:"can0" ~grant_time:1 ~comm_time:2 ();
        Message.make ~name:"servo_cmd" ~sender:"control" ~receiver:"servo"
          ~bus:"can0" ~grant_time:1 ~comm_time:2 ();
      ]
    ~precedences:[ ("attitude", "control") ]
    ~exclusions:[ ("tuner", "control") ]
    ()

let all =
  [
    ("mine-pump", mine_pump);
    ("flight-control", flight_control);
    ("fig3", fig3_precedence);
    ("fig4", fig4_exclusion);
    ("fig8", fig8_preemptive);
    ("quickstart", quickstart);
    ("greedy-trap", greedy_trap);
  ]
