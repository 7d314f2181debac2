(* kv-zipf: one long-lived system with the KV store over two m3fs shards
   and the mount cache live, in the frame of [Figs2.capacity_cell]: a
   4-worker pool serves an open-loop Poisson stream of 9:1 get:put
   requests over Zipf-skewed keys. *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Account = M3_sim.Account
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Pool = M3_serve.Pool
module Load = M3_serve.Load
module Store = M3_kv.Kv_store
module Kv_load = M3_kv.Kv_load

let shards = 2
let workers = 4
let theta = 0.9  (* Zipf skew of key popularity *)

(* Mean cycles between arrivals. At Fig. S2's 1,500 the store runs into
   queueing storms and p99 swings from 0.4x to 1.2x of its median
   across seeds; at 3,000 it is steady. *)
let mean_gap = 3000.0

(* Records of one fs block, as in Fig. S2, so cached extents survive
   invalidations. *)
let store_config ~keys =
  { Store.default_config with Store.keys; buckets = 4; value_len = 1024 - 32 }

(* The pool's KV handler, wrapped to time each execution and to
   remember every worker VPE for the end-of-run checks. *)
let handler (p : Pass.t) store worker_envs =
  let exec = Store.pool_exec store in
  fun (env : Env.t) ~seq arg ->
    if not (Hashtbl.mem worker_envs env.uid) then Hashtbl.replace worker_envs env.uid env;
    let clock () = Engine.now env.engine in
    let c0 = clock () in
    let r = Pass.span p ~name:"kv.exec" ~owner:env.uid ~clock (fun () -> exec env ~seq arg) in
    Pass.sample p "kv.exec_cycles" (clock () - c0);
    r

let run ?(keys = 256) ?(requests = 16_000) (p : Pass.t) ~seed =
  let rng = Rng.create ~seed in
  let schedule =
    Load.poisson ~rng ~mean_gap ~count:requests
      ~mix:(Kv_load.op_mix ~reads:9 ~writes:1) ()
  in
  let schedule =
    Kv_load.assign_keys ~rng
      ~sample:(Kv_load.zipf_keys ~n:keys ~theta)
      schedule
  in
  let store = Store.create ~config:(store_config ~keys) ~name:"kv" () in
  let worker_envs = Hashtbl.create 8 in
  let sys = Cells.create p ~dram_mib:64 in
  (* The client juggles shard sessions plus the pool's gates, so PEs get
     32 DTU endpoints, as in Fig. S2. *)
  let platform_config = { M3_hw.Platform.default_config with ep_count = 32 } in
  let fs ~dram = { (M3.M3fs.default_config ~dram) with M3.M3fs.seed = [] } in
  let b =
    Cells.boot p sys (fun obs ->
        Bootstrap.start ~platform_config ~fs ~fs_instances:shards ?obs sys.engine)
  in
  let account = Account.create () in
  let clients = ref [] in
  let exit =
    Bootstrap.launch b ~name:"client" ~account (fun env ->
        clients := [ env.Env.vpe_id ];
        let clock = Cells.clock sys in
        let ( let* ) r f = match r with Error _ -> 1 | Ok v -> f v in
        let* () =
          Pass.span p ~name:"vfs.mount" ~owner:env.uid ~clock (fun () ->
              M3.Vfs.mount_sharded env ~path:"/" ~services:b.fs_services)
        in
        let* () =
          Pass.span p ~name:"kv.prepare" ~owner:env.uid ~clock (fun () ->
              Store.prepare env store)
        in
        let cfg =
          { (Pool.default_config ~name:"kv" ~workers ()) with
            Pool.fs_services = b.fs_services;
            kv = Some (handler p store worker_envs) }
        in
        let* pool =
          Pass.span p ~name:"serve.start" ~owner:env.uid ~clock (fun () ->
              Pool.start env cfg)
        in
        Pass.sim p "m3fs.round_trips" (M3.Vfs.round_trips env);
        ignore (Serve_open.play p sys env pool ~label:"kv stream" schedule);
        let stopped = Pool.stop env pool in
        Serve_open.pool_counters p (Pool.stats pool);
        if Result.is_ok stopped then 0 else 1)
  in
  ignore (Engine.run sys.engine);
  Cells.acct p account;
  let envs = Hashtbl.fold (fun _ env acc -> env :: acc) worker_envs [] in
  let envs = List.sort (fun (a : Env.t) b -> compare a.uid b.uid) envs in
  List.iter
    (fun env ->
      let hits, misses, invals = M3.Vfs.cache_totals env in
      Pass.sim p "m3fs.round_trips" (M3.Vfs.round_trips env);
      Pass.sim p "kv.cache_hits" hits;
      Pass.sim p "kv.cache_misses" misses;
      Pass.sim p "kv.cache_invals" invals)
    envs;
  let st = Store.stats store in
  Pass.sim p "kv.gets" st.k_gets;
  Pass.sim p "kv.puts" st.k_puts;
  Pass.sim p "kv.dup_skips" st.k_dup_skips;
  Pass.sim p "kv.double_applied" (Store.double_applied store);
  Pass.check p "kv_exactly_once" (Store.double_applied store = 0);
  Cells.finish p sys b ~exits:[ exit ]
    ~vpes:(!clients @ List.map (fun (env : Env.t) -> env.vpe_id) envs)
