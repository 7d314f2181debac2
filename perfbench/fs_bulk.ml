(* fs-bulk: one system with 8 clients. Each client replays tar, untar,
   find and sqlite for 3 rounds with real DMA (no spin transfers) on an
   m3fs mount without the client cache.

   [Replay_m3.run] takes a 4 KiB SPM buffer per call and never returns
   it, so one VPE runs out of SPM after about a dozen replays. Each
   round therefore runs in a fresh VPE: a per-client sequencer process
   launches round r+1 when round r has exited, the way
   [Bootstrap.supervise] relaunches a program. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Platform = M3_hw.Platform
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Workloads = M3_trace.Workloads

let specs ~seed ~clients ~rounds =
  Array.init clients (fun k ->
      Array.init rounds (fun r ->
          List.map
            (fun (s : Workloads.spec) ->
              Workloads.prefixed ~prefix:(Printf.sprintf "/c%dr%d-%s" k r s.sp_name) s)
            (Workloads.all ~seed:((seed * 1009) + (k * 31) + r))))

let mib = 1024 * 1024

let run ?(clients = 8) ?(rounds = 3) (p : Pass.t) ~seed =
  let specs = specs ~seed ~clients ~rounds in
  let seeds =
    List.concat_map
      (fun (s : Workloads.spec) -> s.sp_seeds)
      (List.concat (List.concat_map Array.to_list (Array.to_list specs)))
  in
  let seed_bytes =
    List.fold_left (fun acc (s : M3.M3fs.seed) -> acc + s.sd_size) 0 seeds
  in
  (* Room for every input plus the same again of output, and 32 MiB of
     slack for metadata and fragmentation. *)
  let fs_mib = ((2 * seed_bytes) + (32 * mib)) / mib in
  let dram_mib = 64 + fs_mib in
  let sys = Cells.create p ~dram_mib in
  let platform_config =
    { Platform.default_config with
      pe_count = 2 + clients;
      dram_size = dram_mib * mib }
  in
  let fs ~dram =
    { (M3.M3fs.default_config ~dram) with
      seed = seeds;
      fs_size = fs_mib * mib;
      inode_count = 1024 + (2 * List.length seeds) }
  in
  let b =
    Cells.boot p sys (fun obs -> Bootstrap.start ~platform_config ~fs ?obs sys.engine)
  in
  let first = ref max_int and last = ref 0 in
  let vpes = ref [] in
  let accounts = ref [] in
  let rounds_done = ref 0 in
  let round k r (env : Env.t) =
    vpes := env.vpe_id :: !vpes;
    accounts := env.account :: !accounts;
    M3_harness.Runner.mounted env;
    Cells.measuring p sys;
    first := min !first (Engine.now sys.engine);
    List.iter
      (fun spec ->
        match Cells.replay p env spec with
        | Some cycles ->
          Pass.latency p cycles;
          p.completed <- p.completed + 1
        | None -> ())
      specs.(k).(r);
    last := max !last (Engine.now sys.engine);
    0
  in
  for k = 0 to clients - 1 do
    ignore
      (Process.spawn sys.engine ~name:(Printf.sprintf "client%d" k) (fun () ->
           for r = 0 to rounds - 1 do
             let exit = Bootstrap.launch b ~name:(Printf.sprintf "c%dr%d" k r) (round k r) in
             Pass.check p "vpe_exit" (Process.Ivar.read exit = 0);
             incr rounds_done
           done))
  done;
  ignore (Engine.run sys.engine);
  Pass.check p "rounds_done" (!rounds_done = clients * rounds);
  if !last > 0 then p.sim_cycles <- p.sim_cycles + (!last - !first);
  List.iter (Cells.acct p) (List.rev !accounts);
  Cells.finish p sys b ~exits:[] ~vpes:(List.sort compare !vpes)
