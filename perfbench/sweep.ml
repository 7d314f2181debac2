(* paper-sweep: one fresh system per cell, as a user regenerating the
   paper's figures runs them. Fig. 3 microbenchmarks and the four
   seeded application traces each boot a 64 MiB system; the Fig. 6
   cells run the traces and cat+tr at 1..16 instances through
   [Fig6.run_multi] (64 + 8n MiB, spin transfers). *)

module Engine = M3_sim.Engine
module Account = M3_sim.Account
module Platform = M3_hw.Platform
module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api
module Workloads = M3_trace.Workloads
module Fig6 = M3_harness.Fig6

let ok = Errno.ok_exn

(* --- cells on a system the benchmark boots ----------------------------

   [Fig3.run] frames its cells with [Runner.run_m3], which offers no
   hook at the first measured operation (where setup ends) and no
   kernel handle for the leak checks. The M3 side of Fig. 3 is
   therefore rebuilt here on [app_cell], with the same bodies. *)

(* One 64 MiB system running [app] in a client VPE, framed like
   [Runner.run_m3]; returns the measured cycles. *)
let app_cell (p : Pass.t) ?(seeds = []) ?(no_fs = false) app =
  let dram_mib = 64 in
  let sys = Cells.create p ~dram_mib in
  let dram_size = dram_mib * 1024 * 1024 in
  let platform_config = { Platform.default_config with dram_size } in
  let fs ~dram =
    let base = M3.M3fs.default_config ~dram in
    { base with seed = seeds; fs_size = min base.fs_size (dram_size / 2) }
  in
  let b =
    Cells.boot p sys (fun obs ->
        Bootstrap.start ~platform_config ~fs ~no_fs ?obs sys.engine)
  in
  let account = Account.create () in
  let cycles = ref 0 in
  let clients = ref [] in
  let exit =
    Bootstrap.launch b ~name:"bench" ~account (fun env ->
        clients := [ env.Env.vpe_id ];
        let measured f = cycles := !cycles + Cells.measured p sys f in
        app env ~measured;
        0)
  in
  ignore (Engine.run sys.engine);
  Cells.acct p account;
  Cells.finish p sys b ~exits:[ exit ] ~vpes:!clients;
  p.sim_cycles <- p.sim_cycles + !cycles;
  !cycles

let total_bytes = M3_harness.Fig3.total_bytes
let buf_size = M3_harness.Fig3.buf_size

let big_file =
  [
    { M3.M3fs.sd_path = "/bench.dat"; sd_size = total_bytes;
      sd_blocks_per_extent = 2048; sd_dir = false };
  ]

let drain_file env file buf =
  let rec go () =
    match ok (File.read env file ~local:buf ~len:buf_size) with
    | 0 -> ()
    | _ -> go ()
  in
  go ()

let syscall env ~measured =
  ok (M3.Syscalls.noop env);
  ok (M3.Syscalls.noop env);
  measured (fun () -> ok (M3.Syscalls.noop env))

let read env ~measured =
  M3_harness.Runner.mounted env;
  let buf = Env.alloc_spm env ~size:buf_size in
  let file = ok (Vfs.open_ env "/bench.dat" ~flags:Fs_proto.o_read) in
  measured (fun () -> drain_file env file buf);
  ok (File.close env file)

let write env ~measured =
  M3_harness.Runner.mounted env;
  let buf = Env.alloc_spm env ~size:buf_size in
  M3_mem.Store.fill (M3_hw.Pe.spm env.Env.pe) ~addr:buf ~len:buf_size 'w';
  let file =
    ok (Vfs.open_ env "/bench.out" ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
  in
  measured (fun () ->
      for _ = 1 to total_bytes / buf_size do
        ok (File.write env file ~local:buf ~len:buf_size)
      done;
      ok (File.close env file))

let pipe env ~measured =
  let ring = 64 * 1024 in
  let reader = ok (Pipe.create_reader env ~ring_size:ring) in
  let vpe =
    ok (Vpe_api.create env ~name:"producer" ~core:M3_hw.Core_type.General_purpose)
  in
  ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
  ok
    (Vpe_api.run env vpe (fun cenv ->
         let w = ok (Pipe.connect_writer cenv ~ring_size:ring) in
         let buf = Env.alloc_spm cenv ~size:buf_size in
         for _ = 1 to total_bytes / buf_size do
           ok (Pipe.write cenv w ~local:buf ~len:buf_size)
         done;
         ok (Pipe.close_writer cenv w);
         0));
  let buf = Env.alloc_spm env ~size:buf_size in
  measured (fun () ->
      let rec go () =
        match ok (Pipe.read env reader ~local:buf ~len:buf_size) with
        | 0 -> ()
        | _ -> go ()
      in
      go ());
  if ok (Vpe_api.wait env vpe) <> 0 then failwith "pipe producer failed"

(* Re-read through the mount cache; returns the service round-trips
   inside the measured pass. [primed] warms the cache first. *)
let cached_read ~primed rt env ~measured =
  M3_harness.Runner.mounted env;
  ok (Vfs.enable_cache env ~path:"/");
  let buf = Env.alloc_spm env ~size:buf_size in
  let pass () =
    let file = ok (Vfs.open_ env "/bench.dat" ~flags:Fs_proto.o_read) in
    drain_file env file buf;
    ok (File.close env file)
  in
  if primed then pass ();
  let before = Vfs.round_trips env in
  measured pass;
  rt := Vfs.round_trips env - before

let fig3 (p : Pass.t) =
  let cell name ?seeds ?no_fs app =
    Pass.guard p name (fun () ->
        let cycles = app_cell p ?seeds ?no_fs app in
        Pass.sim p ("fig3." ^ name) cycles)
  in
  cell "syscall" ~no_fs:true syscall;
  cell "read" ~seeds:big_file read;
  cell "write" write;
  cell "pipe" ~no_fs:true pipe;
  let cold_rt = ref 0 and warm_rt = ref 0 in
  cell "cold_read" ~seeds:big_file (cached_read ~primed:false cold_rt);
  cell "warm_read" ~seeds:big_file (cached_read ~primed:true warm_rt);
  Pass.sim p "m3fs.round_trips" (!cold_rt + !warm_rt);
  let m = M3_harness.Runner.zero_measure in
  Pass.check p "fig3_warm_cache"
    (M3_harness.Fig3.warm_cell_ok
       { w_cold = m; w_warm = m; w_cold_rt = !cold_rt; w_warm_rt = !warm_rt })

let trace_cells (p : Pass.t) specs =
  List.iter
    (fun (spec : Workloads.spec) ->
      Pass.guard p spec.sp_name (fun () ->
          ignore
            (app_cell p ~seeds:spec.sp_seeds (fun env ~measured ->
                 M3_harness.Runner.mounted env;
                 measured (fun () ->
                     match Cells.replay p env spec with
                     | Some cycles ->
                       Pass.latency p cycles;
                       p.completed <- p.completed + 1
                     | None -> ())))))
    specs

(* --- Fig. 6 cells through Fig6.run_multi --------------------------------- *)

(* The seeded counterpart of Fig. 6's trace benchmark: instance [k]
   replays [spec] under the prefix /i<k>. *)
let trace_bench (p : Pass.t) (spec : Workloads.spec) : Fig6.bench =
  let prefixed k = Workloads.prefixed ~prefix:(Printf.sprintf "/i%d" k) spec in
  let body ~instance env ~measured =
    measured (fun () -> ignore (Cells.replay p env (prefixed instance)))
  in
  (1, (fun k -> (prefixed k).sp_seeds), body)

(* One [run_multi] cell; returns the average cycles per instance. The
   body wrapper marks the first measured operation, times each
   instance, and lets the last instance to finish fsck the image. *)
let multi_cell (p : Pass.t) ~instances ((ppi, seeds_of, body) : Fig6.bench) =
  let dram_mib = 64 + (8 * instances) in
  p.systems <- p.systems + 1;
  p.dram_mib <- p.dram_mib + dram_mib;
  let t_create = Probe.now () in
  let seen = ref None in
  let accounts = ref [] in
  let finished = ref 0 in
  let body ~instance (env : Env.t) ~measured =
    let sys =
      match !seen with
      | Some (sys, _) -> sys
      | None ->
        let sys = { Cells.engine = env.engine; t_create; measuring = false } in
        seen := Some (sys, env.fabric);
        sys
    in
    accounts := env.account :: !accounts;
    body ~instance env ~measured:(fun f ->
        measured (fun () ->
            let cycles = Cells.measured p sys f in
            Pass.latency p cycles;
            p.completed <- p.completed + 1));
    incr finished;
    if !finished = instances then Cells.fsck p env.engine [ M3.M3fs.program_name ]
  in
  let observe = if p.traced then Some (Cells.attach p) else None in
  let avg =
    Pass.span p ~name:"fig6.run_multi" ~owner:Spans.host ~clock:(fun () -> 0)
      (fun () ->
        Fig6.run_multi ?observe ~instances ~pes_per_instance:ppi ~seeds_of ~body ())
  in
  Pass.check p "fig6_instances_done" (!finished = instances);
  (match !seen with
  | Some (sys, fabric) -> Cells.count_engine p sys.Cells.engine fabric
  | None -> ());
  List.iter (Cells.acct p) (List.rev !accounts);
  p.sim_cycles <- p.sim_cycles + avg;
  avg

let fig6 (p : Pass.t) ~seed ~counts =
  let specs = Workloads.all ~seed in
  let benches =
    ("cat+tr", List.assoc "cat+tr" (Fig6.benches ()))
    :: List.map (fun (s : Workloads.spec) -> (s.sp_name, trace_bench p s)) specs
  in
  let curves =
    List.map
      (fun (name, bench) ->
        let base = ref 0 in
        let points =
          List.filter_map
            (fun n ->
              let avg = ref None in
              Pass.guard p (Printf.sprintf "fig6 %s x%d" name n) (fun () ->
                  let v = multi_cell p ~instances:n bench in
                  Pass.sim p (Printf.sprintf "fig6.%s.%d" name n) v;
                  avg := Some v);
              Option.map
                (fun avg ->
                  if n = List.hd counts then base := avg;
                  { Fig6.instances = n;
                    normalized = float_of_int avg /. float_of_int (max 1 !base) })
                !avg)
            counts
        in
        { Fig6.bench = name; points })
      benches
  in
  List.iter
    (fun (v : M3_harness.Report.verdict) -> Pass.check p ("claim: " ^ v.claim) v.pass)
    (M3_harness.Report.validate ~fig6:curves ())

let run ?(counts = Fig6.counts) (p : Pass.t) ~seed =
  fig3 p;
  trace_cells p (Workloads.all ~seed);
  fig6 p ~seed ~counts
