(* Observability: tracing must be deterministic, must not perturb the
   simulation, and the Chrome exporter must produce well-formed JSON
   whose counters agree with the cycle accounting. *)

module Engine = M3_sim.Engine
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module Chrome = M3_obs.Chrome
module Metrics = M3_obs.Metrics
module Runner = M3_harness.Runner

let tc name f = Alcotest.test_case name `Quick f

(* Installs the harness observer hook for the duration of [f]. *)
let with_observer attach f =
  Runner.observer := Some attach;
  Fun.protect ~finally:(fun () -> Runner.observer := None) f

(* --- determinism ------------------------------------------------------- *)

let record_fig3 () =
  let mem = Obs.Memory.create () in
  with_observer
    (fun o -> Obs.attach o (Obs.Memory.sink mem))
    (fun () -> ignore (M3_harness.Fig3.run ()));
  mem

let test_determinism () =
  let a = record_fig3 () in
  let b = record_fig3 () in
  Alcotest.(check bool)
    "fig3 produces a substantial event stream" true
    (Obs.Memory.count a > 1000);
  Alcotest.(check int) "same event count" (Obs.Memory.count a)
    (Obs.Memory.count b);
  Alcotest.(check bool)
    "event streams byte-identical across runs" true
    (String.equal (Obs.Memory.to_string a) (Obs.Memory.to_string b))

(* --- tracing does not perturb the simulation --------------------------- *)

let test_no_perturbation () =
  let base = M3_harness.Fig5.run_cat_tr_m3 () in
  let mem = Obs.Memory.create () in
  let traced =
    with_observer
      (fun o -> Obs.attach o (Obs.Memory.sink mem))
      (fun () -> M3_harness.Fig5.run_cat_tr_m3 ())
  in
  Alcotest.(check bool) "events recorded" true (Obs.Memory.count mem > 0);
  Alcotest.(check int) "cycles identical" base.Runner.m_cycles
    traced.Runner.m_cycles;
  Alcotest.(check int) "app identical" base.Runner.m_app traced.Runner.m_app;
  Alcotest.(check int) "os identical" base.Runner.m_os traced.Runner.m_os;
  Alcotest.(check int) "xfer identical" base.Runner.m_xfer traced.Runner.m_xfer

(* --- Chrome trace JSON ------------------------------------------------- *)

(* Minimal JSON validator (no JSON library in the tree): accepts
   exactly the RFC 8259 grammar, returns false on any malformation. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let exception Bad in
  let peek () = if !pos >= n then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () <> c then raise Bad else advance () in
  let lit w = String.iter (fun c -> if peek () <> c then raise Bad else advance ()) w in
  let digits () =
    let had = ref false in
    while match peek () with '0' .. '9' -> true | _ -> false do
      had := true;
      advance ()
    done;
    if not !had then raise Bad
  in
  let jstring () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
          advance ();
          go ()
        | 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
            | _ -> raise Bad
          done;
          go ()
        | _ -> raise Bad)
      | '\000' -> raise Bad
      | _ ->
        advance ();
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> jstring ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' ->
      if peek () = '-' then advance ();
      digits ();
      if peek () = '.' then begin
        advance ();
        digits ()
      end;
      (match peek () with
      | 'e' | 'E' ->
        advance ();
        (match peek () with '+' | '-' -> advance () | _ -> ());
        digits ()
      | _ -> ())
    | _ -> raise Bad
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        jstring ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          members ()
        | '}' -> advance ()
        | _ -> raise Bad
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec items () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          items ()
        | ']' -> advance ()
        | _ -> raise Bad
      in
      items ()
  in
  match
    value ();
    skip_ws ()
  with
  | () -> !pos = n
  | exception Bad -> false

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_chrome_json () =
  let chrome = Chrome.create () in
  ignore
    (with_observer
       (fun o ->
         Chrome.begin_run chrome;
         Obs.attach o (Chrome.sink chrome))
       (fun () -> M3_harness.Fig5.run_cat_tr_m3 ()));
  let json = Chrome.to_string chrome in
  Alcotest.(check bool) "well-formed JSON" true (json_well_formed json);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "trace contains %s" needle)
        true
        (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"cat\":\"dtu\"";
      "\"cat\":\"noc\"";
      "\"cat\":\"syscall\"";
      "\"cat\":\"pipe\"";
      "\"ph\":\"s\"" (* flow start... *);
      "\"ph\":\"f\"" (* ...and finish: arrows are present *);
      "\"ph\":\"M\"" (* process/thread metadata *);
    ]

(* --- counters agree with the cycle accounting --------------------------- *)

(* One uncontended null syscall: the Xfer charge is derived from the
   fabric's pure latency, and with nothing else on the NoC the traced
   request + reply transfers must cover exactly those cycles. *)
let test_counter_consistency () =
  let mem = Obs.Memory.create () in
  let metrics = Metrics.create () in
  let t0 = ref 0 and t1 = ref 0 in
  let m =
    with_observer
      (fun o ->
        Obs.attach o (Obs.Memory.sink mem);
        Obs.attach o (Metrics.sink metrics))
      (fun () ->
        Runner.run_m3 ~pe_count:4 ~dram_mib:4 ~no_fs:true
          (fun env ~measured ->
            t0 := Engine.now env.M3.Env.engine;
            measured (fun () -> M3.Errno.ok_exn (M3.Syscalls.noop env));
            t1 := Engine.now env.M3.Env.engine))
  in
  let in_window = ref 0 and traced_xfer = ref 0 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Event.Noc_xfer { depart; arrive; _ }
        when depart >= !t0 && arrive <= !t1 ->
        incr in_window;
        traced_xfer := !traced_xfer + (arrive - depart)
      | _ -> ())
    (Obs.Memory.events mem);
  Alcotest.(check int) "request + reply crossings" 2 !in_window;
  Alcotest.(check int) "Xfer charge equals traced NoC occupancy"
    m.Runner.m_xfer !traced_xfer;
  (* The metrics sink saw the same syscall. *)
  Alcotest.(check int)
    "metrics recorded the noop" 1
    (Metrics.count metrics "syscall.exit" "noop")

let suites =
  [
    ( "obs",
      [
        tc "deterministic event stream (fig3 twice)" test_determinism;
        tc "tracing does not perturb cycle counts" test_no_perturbation;
        tc "chrome trace is well-formed JSON with flows" test_chrome_json;
        tc "traced transfers match Xfer accounting" test_counter_consistency;
      ] );
  ]
