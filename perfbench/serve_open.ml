(* serve-open: one long-lived system with a 4-worker pool and no
   filesystem. Open-loop Poisson [Echo 2000] load arrives in four
   back-to-back phases at fixed shares of the nominal capacity
   (workers / 2000 cycles). *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Stats = M3_sim.Stats
module Account = M3_sim.Account
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Wire = M3_serve.Wire

let workers = 4
let service = 2000  (* cycles per [Echo] request *)
let phases = [ 0.5; 0.8; 0.9; 1.0 ]  (* offered load, shares of nominal capacity *)
let slo_cycles = 25_000  (* p99 limit of the SLO rate *)

(* Latency of each request from the cycle it was due, and how late the
   generator sent it, in schedule order. [run_open] sends in schedule
   order, so the k-th earliest send is request k; this holds only when
   every request completed. *)
let due_latencies ~t0 (schedule : Load.arrival array) (cr : Pool.client_result) =
  let sent =
    List.sort compare
      (List.map (fun (done_at, lat) -> (done_at - lat, done_at)) cr.cr_completions)
  in
  Array.of_list
    (List.mapi
       (fun i (send, done_at) ->
         let due = t0 + schedule.(i).Load.at in
         (done_at - due, send - due))
       sent)

(* Plays [schedule] open-loop on [pool]. Returns each request's latency
   from its due cycle, in schedule order, when every request was
   admitted and completed. Requests for which [measured] holds count
   toward the workload's latency percentiles. *)
let play ?(measured = fun _ -> true) (p : Pass.t) sys env pool ~label schedule =
  Cells.measuring p sys;
  let t0 = Engine.now sys.Cells.engine in
  let cr =
    Pass.span p ~name:"serve.run_open" ~owner:env.Env.uid ~clock:(Cells.clock sys)
      (fun () -> Pool.run_open env pool ~schedule)
  in
  p.sim_cycles <- p.sim_cycles + (Engine.now sys.Cells.engine - t0);
  p.completed <- p.completed + cr.cr_completed;
  let refused = cr.cr_rejected + cr.cr_throttled + cr.cr_unavail in
  Pass.ops p ~name:label ~attempted:cr.cr_sent ~failed:(cr.cr_sent - cr.cr_completed);
  Pass.check p "requests_resolved" (cr.cr_completed + cr.cr_failed + refused = cr.cr_sent);
  let all_done = cr.cr_completed = Array.length schedule in
  Pass.check p "requests_completed" all_done;
  if not all_done then None
  else begin
    let lats = due_latencies ~t0 schedule cr in
    Array.iteri
      (fun i (lat, lag) ->
        if measured i then Pass.latency p lat;
        Pass.sample p "serve.gen_lag_cycles" lag)
      lats;
    if cr.cr_admitted = cr.cr_sent then Some (Array.map fst lats) else None
  end

(* Dispatcher and worker counters of a stopped pool. *)
let pool_counters (p : Pass.t) (st : Pool.pool_stats) =
  Pass.sim p "serve.admitted" st.p_admitted;
  Pass.sim p "serve.rejected" st.p_rejected;
  Pass.sim p "serve.batches" st.p_batches;
  Pass.sim p "serve.batched" st.p_batched;
  Pass.sim p "serve.retried" st.p_retried;
  Pass.sim p "serve.deduped" st.p_deduped;
  Pass.value p "serve.queue_depth_max" (float_of_int st.p_max_depth);
  let service = Pool.service_latency st in
  Pass.value p "serve.service_p50_cycles" (Stats.percentile service 50.0);
  Pass.value p "serve.service_p99_cycles" (Stats.percentile service 99.0);
  Pass.value p "serve.dispatch_p99_cycles" (Stats.percentile st.p_disp_latency 99.0)

(* Whether request [i] falls in a phase below nominal capacity. At 1.0x
   the pool sits at its knee, where the queue is a random walk and p99
   swings by 2x from seed to seed; that phase is reported on its own
   and left out of the workload's latency percentiles. *)
let below_capacity ~per_phase i = List.nth phases (i / per_phase) < 1.0

(* The highest phase rate, in requests per Mcycle, whose p99 stays
   under the limit; 0 when none does. *)
let slo_rate (p : Pass.t) ~per_phase schedule lats =
  let n = per_phase in
  List.fold_left
    (fun (best, i) share ->
      let h = Hist.create () in
      Array.iter (Hist.add h) (Array.sub lats (i * n) n);
      let p99 = Hist.percentile h 99.0 in
      let rate = Load.offered_rate (Array.sub schedule (i * n) n) *. 1e6 in
      Pass.sim p (Printf.sprintf "serve.phase%.1f.p50_cycles" share) (Hist.percentile h 50.0);
      Pass.sim p (Printf.sprintf "serve.phase%.1f.p99_cycles" share) p99;
      Pass.value p (Printf.sprintf "serve.phase%.1f.rate_rpmc" share) rate;
      ((if p99 < slo_cycles then Float.max best rate else best), i + 1))
    (0.0, 0) phases
  |> fst

let run ?(per_phase = 10_000) (p : Pass.t) ~seed =
  let rng = Rng.create ~seed in
  let capacity = float_of_int workers /. float_of_int service in
  let schedule =
    Load.ramp ~rng
      ~phases:(List.map (fun share -> (1.0 /. (share *. capacity), per_phase)) phases)
      ~mix:(Load.pure (Wire.Echo service)) ()
  in
  let sys = Cells.create p ~dram_mib:64 in
  let b =
    Cells.boot p sys (fun obs -> Bootstrap.start ~no_fs:true ?obs sys.engine)
  in
  let account = Account.create () in
  let clients = ref [] in
  let exit =
    Bootstrap.launch b ~name:"client" ~account (fun env ->
        clients := [ env.Env.vpe_id ];
        let cfg = Pool.default_config ~name:"serve" ~workers () in
        match
          Pass.span p ~name:"serve.start" ~owner:env.uid ~clock:(Cells.clock sys)
            (fun () -> Pool.start env cfg)
        with
        | Error _ -> 1
        | Ok pool ->
          let rate =
            match play ~measured:(below_capacity ~per_phase) p sys env pool ~label:"serve ramp" schedule with
            | Some lats -> slo_rate p ~per_phase schedule lats
            | None -> 0.0
          in
          Pass.value p "serve.slo_rate_rpmc" rate;
          let stopped = Pool.stop env pool in
          pool_counters p (Pool.stats pool);
          if Result.is_ok stopped then 0 else 1)
  in
  ignore (Engine.run sys.engine);
  Cells.acct p account;
  Cells.finish p sys b ~exits:[ exit ] ~vpes:!clients
