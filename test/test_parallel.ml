(* Tests for host-side parallelism across simulations: event-queue slot
   clearing, atomic id minting, the domain pool, and — the load-bearing
   property — byte-identical simulated results when independent
   replicas run at 1, 2 and 4 domains. *)

module Engine = M3_sim.Engine
module Domainpool = M3_sim.Domainpool
module Obs = M3_obs.Obs
module Runner = M3_harness.Runner
module Fig6x = M3_harness.Fig6x

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- event heap: popped slots must not pin their entries ------------- *)

(* Kept out of the test body so the payload cannot stay live in the
   caller's frame: once this returns, only the engine's queue arrays
   could still reference the event closure that captured it. *)
let[@inline never] schedule_run_cycle e =
  let payload = Array.make 1024 0 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some payload);
  let seen = ref false in
  Engine.schedule e ~delay:1 (fun () -> seen := payload.(0) = 0);
  Engine.run_until e ~time:1;
  assert !seen;
  w

let test_heap_no_pinning () =
  let e = Engine.create () in
  (* A surviving event, so the queue stays allocated across the pop. *)
  Engine.schedule e ~delay:5 ignore;
  let w = schedule_run_cycle e in
  Gc.full_major ();
  check_int "survivor still queued" 1 (Engine.pending e);
  check_bool "drained slot holds no reference to the popped event" true
    (Weak.get w 0 = None)

(* --- event heap: property test against a sorted-list oracle --------- *)

(* [Some d] schedules an event [d] cycles ahead; [None] runs the events
   of the earliest pending cycle with [run_until]. The oracle is a
   stable sorted association list of (cycle, id), so FIFO among equal
   cycles is checked too: the ids the events log must come out in the
   oracle's order. *)
let qcheck_heap_oracle =
  QCheck.Test.make ~name:"heap matches a sorted-list oracle under push/pop"
    ~count:300
    QCheck.(list (option (int_bound 30)))
    (fun ops ->
      let e = Engine.create () in
      let log = ref [] in
      let oracle = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some d ->
            let k = Engine.now e + d and id = !seq in
            Engine.schedule e ~delay:d (fun () -> log := (Engine.now e, id) :: !log);
            let rec ins = function
              | (k', v) :: rest when k' <= k -> (k', v) :: ins rest
              | rest -> (k, id) :: rest
            in
            oracle := ins !oracle;
            incr seq;
            Engine.pending e = List.length !oracle
          | None -> (
            match !oracle with
            | [] -> Engine.pending e = 0
            | (k, _) :: _ ->
              let due, rest = List.partition (fun (k', _) -> k' = k) !oracle in
              oracle := rest;
              log := [];
              Engine.run_until e ~time:k;
              List.rev !log = due
              && Engine.now e = k
              && Engine.pending e = List.length rest))
        ops)

(* --- atomic id minting across domains -------------------------------- *)

let test_engine_ids_atomic () =
  let per_domain = 16 in
  let ids =
    Domainpool.run ~domains:4
      (List.init 4 (fun _ () ->
           List.init per_domain (fun _ -> Engine.id (Engine.create ()))))
    |> List.concat
  in
  let distinct = List.sort_uniq compare ids in
  check_int "engine ids minted concurrently are distinct"
    (4 * per_domain) (List.length distinct)

(* --- domain pool ------------------------------------------------------ *)

let test_domainpool_order () =
  let expected = List.init 20 (fun i -> i * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "results keep input order at %d domains" domains)
        expected
        (Domainpool.run ~domains (List.init 20 (fun i () -> i * i))))
    [ 1; 3; 8 ]

let test_domainpool_errors () =
  match
    Domainpool.run ~domains:2
      [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
  with
  | _ -> Alcotest.fail "expected the thunk's exception to propagate"
  | exception Failure m -> Alcotest.(check string) "first error wins" "boom" m

(* --- full-system replicas: byte-identical event logs ------------------ *)

(* Each sim runs wholly inside one thunk on one domain, so the bus the
   observer hook hands out is parked in domain-local storage and read
   back by the same thunk. *)
let captured : Obs.Memory.mem option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_capture f =
  let prev = !Runner.observer in
  Runner.observer :=
    Some
      (fun o ->
        let m = Obs.Memory.create () in
        Obs.attach o (Obs.Memory.sink m);
        Domain.DLS.get captured := Some m);
  Fun.protect ~finally:(fun () -> Runner.observer := prev) f

let logged run () =
  let cell = Domain.DLS.get captured in
  cell := None;
  run ();
  match !cell with
  | Some m -> Obs.Memory.to_string m
  | None -> Alcotest.fail "observer hook did not fire"

(* A figS-style serving-pool sim: boot, pool bring-up, a short seeded
   open-loop burst, drain. *)
let figs_sim () =
  ignore
    (Runner.run_m3 ~pe_count:8 ~dram_mib:4 ~no_fs:true (fun env ~measured ->
         let schedule =
           M3_serve.Load.poisson
             ~rng:(M3_sim.Rng.create ~seed:42)
             ~mean_gap:500.0 ~count:16
             ~mix:(M3_serve.Load.pure (M3_serve.Wire.Echo 1000))
             ()
         in
         let pool =
           M3.Errno.ok_exn
             (M3_serve.Pool.start env
                (M3_serve.Pool.default_config ~name:"tpar" ~workers:2 ()))
         in
         measured (fun () ->
             ignore (M3_serve.Pool.run_open env pool ~schedule));
         M3.Errno.ok_exn (M3_serve.Pool.stop env pool)))

(* Seeded figS- and fig6x-style sims, replicated on 1, 2 and 4 domains:
   every replica's event log must be byte-identical to the sequential
   run's — concurrent sims must not leak into each other through any
   process-global table. *)
let test_replica_determinism () =
  with_capture (fun () ->
      let jobs =
        [
          logged (fun () -> ignore (Fig6x.warm_find_pass ~primed:false ()));
          logged (fun () -> ignore (Fig6x.warm_find_pass ~primed:true ()));
          logged figs_sim;
        ]
      in
      let base = Domainpool.run ~domains:1 jobs in
      List.iter
        (fun log ->
          check_bool "sequential logs are non-trivial" true
            (String.length log > 1000))
        base;
      List.iter
        (fun domains ->
          List.iteri
            (fun i (expect, got) ->
              check_bool
                (Printf.sprintf "sim %d log byte-identical at %d domains" i
                   domains)
                true (String.equal expect got))
            (List.combine base (Domainpool.run ~domains jobs)))
        [ 2; 4 ])

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "heap: popped slots are cleared" `Quick
          test_heap_no_pinning;
        QCheck_alcotest.to_alcotest qcheck_heap_oracle;
        Alcotest.test_case "engine ids are atomic across domains" `Quick
          test_engine_ids_atomic;
        Alcotest.test_case "domain pool keeps input order" `Quick
          test_domainpool_order;
        Alcotest.test_case "domain pool propagates errors" `Quick
          test_domainpool_errors;
        Alcotest.test_case "full-system replicas: byte-identical logs" `Slow
          test_replica_determinism;
      ] );
  ]
