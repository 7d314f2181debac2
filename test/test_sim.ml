(* Tests for the discrete-event engine and the effect-based processes. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Rng = M3_sim.Rng
module Account = M3_sim.Account
module Stats = M3_sim.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- the engine's event heap ---

   Driven through [schedule]/[run]/[pending]: each event records its
   own payload, so the run order is the pop order. *)

let drain_order e log =
  ignore (Engine.run e);
  List.rev !log

let test_heap_order () =
  let e = Engine.create () and log = ref [] in
  List.iter
    (fun k -> Engine.schedule e ~delay:k (fun () -> log := k :: !log))
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain_order e log)

let test_heap_fifo_ties () =
  let e = Engine.create () and log = ref [] in
  List.iter
    (fun name -> Engine.schedule e ~delay:7 (fun () -> log := name :: !log))
    [ "a"; "b"; "c" ];
  Alcotest.(check (list string))
    "FIFO among equal keys" [ "a"; "b"; "c" ] (drain_order e log)

(* Events schedule further events while the queue drains, so pushes and
   pops interleave inside the heap. *)
let test_heap_interleaved () =
  let e = Engine.create () in
  let prev = ref (-1) and ok = ref true and ran = ref 0 in
  let rec event i () =
    incr ran;
    if Engine.now e < !prev then ok := false;
    prev := Engine.now e;
    if i < 1000 then Engine.schedule e ~delay:(i * 7 mod 101) (event (i + 1))
  in
  for i = 0 to 99 do
    Engine.schedule e ~delay:(i * 13 mod 37) (event (i * 10))
  done;
  ignore (Engine.run e);
  check_bool "monotone keys" true !ok;
  (* The chain started at [i * 10] runs events [i * 10 .. 1000]. *)
  check_int "every event ran"
    (List.fold_left ( + ) 0 (List.init 100 (fun i -> 1001 - (i * 10))))
    !ran;
  check_int "empty at end" 0 (Engine.pending e)

(* --- engine --- *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:10 (fun () -> seen := (10, Engine.now e) :: !seen);
  Engine.schedule e ~delay:5 (fun () -> seen := (5, Engine.now e) :: !seen);
  let final = Engine.run e in
  check_int "final time" 10 final;
  Alcotest.(check (list (pair int int)))
    "events in order with correct now" [ (5, 5); (10, 10) ] (List.rev !seen)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~delay:1 (fun () ->
      Engine.schedule e ~delay:2 (fun () ->
          incr hits;
          check_int "nested time" 3 (Engine.now e)));
  ignore (Engine.run e);
  check_int "nested ran" 1 !hits

let test_engine_run_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> ran := d :: !ran))
    [ 1; 5; 10 ];
  Engine.run_until e ~time:5;
  Alcotest.(check (list int)) "only up to 5" [ 5; 1 ] !ran;
  check_int "clock at boundary" 5 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "rest ran" [ 10; 5; 1 ] !ran

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:3 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Engine.schedule_at: time 1 is in the past (now 3)")
        (fun () -> Engine.schedule_at e ~time:1 (fun () -> ())));
  ignore (Engine.run e)

(* --- allocation ceilings ---

   Once the queue has grown, scheduling and stepping allocate nothing
   but the event's own closure. A wait reuses its process's prebuilt
   effect and resume event, so it costs only the continuation the
   runtime captures and the option holding it; a park adds its queue
   entry, the list cell and the woken value. These ceilings pin that:
   each loop runs [alloc_iterations] events (or round trips) in one
   [run], so the run's fixed cost is noise. *)

let alloc_iterations = 10_000

let minor_words_per_event run =
  let before = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. before) /. float_of_int alloc_iterations

let check_ceiling what ceiling words =
  check_bool
    (Printf.sprintf "%s: %.1f minor words/event <= %.0f" what words ceiling)
    true (words <= ceiling)

let test_alloc_schedule_step () =
  let e = Engine.create () in
  let left = ref alloc_iterations in
  let rec tick () =
    decr left;
    if !left > 0 then Engine.schedule e ~delay:1 tick
  in
  Engine.schedule e ~delay:1 tick;
  check_ceiling "schedule + step" 8.0
    (minor_words_per_event (fun () -> ignore (Engine.run e)))

let test_alloc_process_wait () =
  let e = Engine.create () in
  let _p =
    Process.spawn e ~name:"waiter" (fun () ->
        for _ = 1 to alloc_iterations do
          Process.wait 1
        done)
  in
  check_ceiling "Process.wait 1" 8.0
    (minor_words_per_event (fun () -> ignore (Engine.run e)))

let test_alloc_park_broadcast () =
  let e = Engine.create () in
  let q = Process.Waitq.create () in
  let _p =
    Process.spawn e ~name:"parker" (fun () ->
        for _ = 1 to alloc_iterations do
          Process.Waitq.park q
        done)
  in
  let left = ref alloc_iterations in
  let rec kick () =
    Process.Waitq.broadcast q ();
    decr left;
    if !left > 0 then Engine.schedule e ~delay:1 kick
  in
  Engine.schedule e ~delay:1 kick;
  check_ceiling "park + broadcast round trip" 24.0
    (minor_words_per_event (fun () -> ignore (Engine.run e)))

(* --- processes --- *)

let test_process_wait () =
  let e = Engine.create () in
  let trace = ref [] in
  let _p =
    Process.spawn e ~name:"t" (fun () ->
        trace := ("start", Engine.now e) :: !trace;
        Process.wait 100;
        trace := ("mid", Engine.now e) :: !trace;
        Process.wait 50;
        trace := ("end", Engine.now e) :: !trace)
  in
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "timeline"
    [ ("start", 0); ("mid", 100); ("end", 150) ]
    (List.rev !trace)

let test_process_status () =
  let e = Engine.create () in
  let p = Process.spawn e ~name:"ok" (fun () -> Process.wait 1) in
  let q = Process.spawn e ~name:"boom" (fun () -> failwith "boom") in
  ignore (Engine.run e);
  check_bool "finished" true (Process.status p = Process.Finished);
  (match Process.status q with
  | Process.Failed (Failure m) -> Alcotest.(check string) "msg" "boom" m
  | _ -> Alcotest.fail "expected failure");
  ()

let test_process_ivar () =
  let e = Engine.create () in
  let iv = Process.Ivar.create () in
  let got = ref 0 and t_read = ref 0 in
  let _reader =
    Process.spawn e ~name:"reader" (fun () ->
        got := Process.Ivar.read iv;
        t_read := Engine.now e)
  in
  let _writer =
    Process.spawn e ~name:"writer" (fun () ->
        Process.wait 42;
        Process.Ivar.fill iv 7)
  in
  ignore (Engine.run e);
  check_int "value" 7 !got;
  check_int "woke at fill time" 42 !t_read

let test_process_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Process.Ivar.create () in
  Process.Ivar.fill iv "x";
  let got = ref "" in
  let _p = Process.spawn e ~name:"r" (fun () -> got := Process.Ivar.read iv) in
  ignore (Engine.run e);
  Alcotest.(check string) "immediate" "x" !got;
  check_bool "is_filled" true (Process.Ivar.is_filled iv)

let test_process_waitq_fifo () =
  let e = Engine.create () in
  let q = Process.Waitq.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    ignore
      (Process.spawn e
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           Process.wait i;
           let v = Process.Waitq.park q in
           woken := (i, v, Engine.now e) :: !woken))
  done;
  ignore
    (Process.spawn e ~name:"broadcaster" (fun () ->
         Process.wait 100;
         check_int "three waiters" 3 (Process.Waitq.waiters q);
         Process.Waitq.broadcast q "all";
         check_int "queue emptied" 0 (Process.Waitq.waiters q)));
  ignore (Engine.run e);
  Alcotest.(check (list (triple int string int)))
    "wakeup order is FIFO"
    [ (1, "all", 100); (2, "all", 100); (3, "all", 100) ]
    (List.rev !woken)

let test_process_kill () =
  let e = Engine.create () in
  let reached = ref false in
  let p =
    Process.spawn e ~name:"victim" (fun () ->
        Process.wait 10;
        reached := true)
  in
  ignore (Process.spawn e ~name:"killer" (fun () ->
      Process.wait 5;
      Process.kill p));
  ignore (Engine.run e);
  check_bool "body after kill not reached" false !reached;
  check_bool "victim finished" true (Process.status p = Process.Finished)

let test_process_kill_while_parked () =
  let e = Engine.create () in
  let q = Process.Waitq.create () in
  let p = Process.spawn e ~name:"parked" (fun () -> Process.Waitq.park q) in
  ignore
    (Process.spawn e ~name:"killer" (fun () ->
         Process.wait 5;
         Process.kill p;
         (* The kill takes effect when the process next resumes. *)
         Process.Waitq.broadcast q ()));
  ignore (Engine.run e);
  check_bool "killed cleanly" true (Process.status p = Process.Finished)

(* The process record keeps a continuation only until its resume event
   runs: a value live only across a finished wait is collectable while
   the process sits parked at its next one. *)
let hold_across_wait w =
  let x = Bytes.make 64 'x' in
  Weak.set w 0 (Some x);
  Process.wait 1;
  ignore (Sys.opaque_identity x)

let test_resumed_continuation_not_pinned () =
  let e = Engine.create () in
  let q = Process.Waitq.create () and w = Weak.create 1 in
  let p =
    Process.spawn e ~name:"p" (fun () ->
        hold_across_wait w;
        Process.Waitq.park q)
  in
  ignore (Engine.run e);
  check_int "parked at the next wait" 1 (Process.Waitq.waiters q);
  Gc.full_major ();
  check_bool "finished wait's frame collected" true (Weak.get w 0 = None);
  check_bool "process still running" true (Process.status p = Process.Running)

let test_two_processes_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  let mk name step =
    Process.spawn e ~name (fun () ->
        for i = 1 to 3 do
          Process.wait step;
          log := (name, i, Engine.now e) :: !log
        done)
  in
  ignore (mk "a" 10);
  ignore (mk "b" 15);
  ignore (Engine.run e);
  Alcotest.(check (list (triple string int int)))
    "deterministic interleaving"
    [
      (* At t = 30 both are due; "b" scheduled its event first (at
         t = 15 vs t = 20), so FIFO tie-breaking runs "b" first. *)
      ("a", 1, 10); ("b", 1, 15); ("a", 2, 20); ("b", 2, 30); ("a", 3, 30);
      ("b", 3, 45);
    ]
    (List.rev !log)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let w = Rng.int_in r ~lo:5 ~hi:9 in
    check_bool "in closed range" true (w >= 5 && w <= 9);
    let f = Rng.float r in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 10 (fun _ -> Rng.bits64 child) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_fill_bytes () =
  let r = Rng.create ~seed:3 in
  let buf = Bytes.make 64 'z' in
  Rng.fill_bytes r buf ~pos:8 ~len:16;
  check_bool "prefix untouched" true
    (Bytes.sub_string buf 0 8 = String.make 8 'z');
  check_bool "suffix untouched" true
    (Bytes.sub_string buf 24 40 = String.make 40 'z');
  check_bool "middle randomized" true
    (Bytes.sub_string buf 8 16 <> String.make 16 'z')

(* [fill_bytes] is the byte stream of [byte]: file seeding and every
   digest built on it depend on that. *)
let test_rng_fill_bytes_stream () =
  List.iter
    (fun seed ->
      List.iter
        (fun len ->
          let filled = Rng.create ~seed and twin = Rng.create ~seed in
          let buf = Bytes.make (len + 2) 'z' in
          Rng.fill_bytes filled buf ~pos:1 ~len;
          let expect = String.init len (fun _ -> Char.chr (Rng.byte twin)) in
          let what = Printf.sprintf "seed %d len %d" seed len in
          Alcotest.(check string) what expect (Bytes.sub_string buf 1 len);
          Alcotest.(check int64)
            (what ^ ": next bits64") (Rng.bits64 twin) (Rng.bits64 filled))
        [ 0; 1; 7; 70_000 ])
    [ 1; 3; 42 ]

(* --- account / stats --- *)

let test_account () =
  let a = Account.create () in
  Account.charge a Account.App 10;
  Account.charge a Account.Os 5;
  Account.charge a Account.Xfer 3;
  Account.charge a Account.App 1;
  check_int "app" 11 (Account.get a Account.App);
  check_int "total" 19 (Account.total a);
  let b = Account.create () in
  Account.charge b Account.Os 100;
  Account.add ~into:b a;
  check_int "merged" 119 (Account.total b);
  Account.reset a;
  check_int "reset" 0 (Account.total a)

let test_stats () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_int "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s)

let test_percentile () =
  let chk name expect got = Alcotest.(check (float 1e-9)) name expect got in
  (* 0 observations: every percentile is 0. *)
  let empty = Stats.create () in
  chk "empty p0" 0.0 (Stats.percentile empty 0.0);
  chk "empty p50" 0.0 (Stats.percentile empty 50.0);
  chk "empty p100" 0.0 (Stats.percentile empty 100.0);
  (* 1 observation: every percentile is that value. *)
  let one = Stats.of_list [ 42.0 ] in
  chk "one p0" 42.0 (Stats.percentile one 0.0);
  chk "one p50" 42.0 (Stats.percentile one 50.0);
  chk "one p99" 42.0 (Stats.percentile one 99.0);
  chk "one p100" 42.0 (Stats.percentile one 100.0);
  (* 2 observations: linear interpolation between them. *)
  let two = Stats.of_list [ 10.0; 20.0 ] in
  chk "two p0" 10.0 (Stats.percentile two 0.0);
  chk "two p25" 12.5 (Stats.percentile two 25.0);
  chk "two p50" 15.0 (Stats.percentile two 50.0);
  chk "two p100" 20.0 (Stats.percentile two 100.0);
  (* Insertion order must not matter, and out-of-range p is clamped. *)
  let s = Stats.of_list [ 9.0; 2.0; 5.0; 4.0; 7.0; 4.0; 5.0; 4.0 ] in
  chk "p0 = min" 2.0 (Stats.percentile s 0.0);
  chk "p100 = max" 9.0 (Stats.percentile s 100.0);
  chk "p50" 4.5 (Stats.percentile s 50.0);
  chk "clamp low" 2.0 (Stats.percentile s (-10.0));
  chk "clamp high" 9.0 (Stats.percentile s 1000.0);
  (* Adding after a query invalidates the cached order. *)
  Stats.add s 1.0;
  chk "after add, p0" 1.0 (Stats.percentile s 0.0);
  check_int "count grows" 9 (Stats.count s)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap drains keys in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let e = Engine.create () and log = ref [] in
      List.iter
        (fun k -> Engine.schedule e ~delay:k (fun () -> log := Engine.now e :: !log))
        keys;
      drain_order e log = List.sort compare keys)

let qcheck_alloc_roundtrip =
  QCheck.Test.make ~name:"process wait sums delays" ~count:100
    QCheck.(list (int_bound 50))
    (fun delays ->
      let e = Engine.create () in
      let _p =
        Process.spawn e ~name:"q" (fun () -> List.iter Process.wait delays)
      in
      Engine.run e = List.fold_left ( + ) 0 delays)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "sim.heap",
      [
        tc "pops in key order" test_heap_order;
        tc "FIFO among equal keys" test_heap_fifo_ties;
        tc "interleaved push/pop stays monotone" test_heap_interleaved;
        QCheck_alcotest.to_alcotest qcheck_heap_sorts;
      ] );
    ( "sim.engine",
      [
        tc "time advances to event stamps" test_engine_time_advances;
        tc "nested scheduling" test_engine_nested_schedule;
        tc "run_until stops at boundary" test_engine_run_until;
        tc "rejects scheduling in the past" test_engine_rejects_past;
      ] );
    ( "sim.alloc",
      [
        tc "schedule + step allocates at most 8 words" test_alloc_schedule_step;
        tc "a wait step allocates at most 8 words" test_alloc_process_wait;
        tc "park + broadcast allocates at most 24 words"
          test_alloc_park_broadcast;
      ] );
    ( "sim.process",
      [
        tc "wait advances local time" test_process_wait;
        tc "status reflects completion and failure" test_process_status;
        tc "ivar blocks until filled" test_process_ivar;
        tc "ivar read after fill is immediate" test_process_ivar_read_after_fill;
        tc "waitq wakes FIFO" test_process_waitq_fifo;
        tc "kill takes effect at next wait" test_process_kill;
        tc "kill while parked" test_process_kill_while_parked;
        tc "a resumed continuation is not pinned"
          test_resumed_continuation_not_pinned;
        tc "two processes interleave deterministically"
          test_two_processes_interleave;
        QCheck_alcotest.to_alcotest qcheck_alloc_roundtrip;
      ] );
    ( "sim.rng",
      [
        tc "deterministic" test_rng_deterministic;
        tc "bounds respected" test_rng_bounds;
        tc "split gives independent stream" test_rng_split_independent;
        tc "fill_bytes stays in slice" test_rng_fill_bytes;
        tc "fill_bytes is the byte stream" test_rng_fill_bytes_stream;
      ] );
    ( "sim.accounting",
      [
        tc "account arithmetic" test_account;
        tc "stats summary" test_stats;
        tc "stats percentiles" test_percentile;
      ]
    );
  ]
