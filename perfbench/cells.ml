(* The life of one simulated system inside a pass: engine creation
   starts its setup clock, the benchmark's first measured operation stops
   it, and after the run the end-of-run checks read the kernel, the
   m3fs images and the counters of every layer. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Obs = M3_obs.Obs
module Platform = M3_hw.Platform
module Fabric = M3_noc.Fabric
module Dtu = M3_dtu.Dtu
module Bootstrap = M3.Bootstrap
module Kernel = M3.Kernel
module Env = M3.Env

type sys = {
  engine : Engine.t;
  t_create : float;
  mutable measuring : bool;
}

let create (p : Pass.t) ~dram_mib =
  p.systems <- p.systems + 1;
  p.dram_mib <- p.dram_mib + dram_mib;
  let t_create = Probe.now () in
  { engine = Engine.create (); t_create; measuring = false }

(* The event bus of a traced pass, with the counting sink attached. *)
let attach (p : Pass.t) o = Obs.attach o (Tally.sink p.tally)

let obs (p : Pass.t) engine =
  if p.traced then begin
    let o = Obs.of_engine engine in
    attach p o;
    Some o
  end
  else None

let clock sys () = Engine.now sys.engine

(* [boot p sys start] runs [start ?obs] — a [Bootstrap.start] call — in
   the [boot.start] span. *)
let boot (p : Pass.t) sys start =
  let t0 = Probe.now () in
  let b =
    Pass.span p ~name:"boot.start" ~owner:Spans.host ~clock:(clock sys) (fun () ->
        start (obs p sys.engine))
  in
  p.boot_start_s <- p.boot_start_s +. (Probe.now () -. t0);
  b

(* Marks the benchmark's first measured operation: the system's setup
   ends here. Later calls are no-ops. *)
let measuring (p : Pass.t) sys =
  if not sys.measuring then begin
    sys.measuring <- true;
    p.setup_s <- p.setup_s +. (Probe.now () -. sys.t_create)
  end

(* [measured p sys f] brackets one measured operation and returns its
   simulated cycles. *)
let measured p sys f =
  measuring p sys;
  let c0 = Engine.now sys.engine in
  f ();
  Engine.now sys.engine - c0

let replay_bytes (spec : M3_trace.Workloads.spec) =
  (M3_trace.Trace.summarize spec.sp_trace).M3_trace.Trace.n_data_bytes

(* One [Replay_m3.run] of [spec] in the VPE [env]; returns its
   simulated cycles, or [None] when the replay failed. *)
let replay (p : Pass.t) (env : Env.t) (spec : M3_trace.Workloads.spec) =
  let clock () = Engine.now env.engine in
  let c0 = clock () in
  let r =
    Pass.span p ~name:"trace.replay" ~owner:env.uid ~clock (fun () ->
        M3_trace.Replay_m3.run env spec.sp_trace)
  in
  let cycles = clock () - c0 in
  Pass.ops p ~name:("replay " ^ spec.sp_name) ~attempted:1
    ~failed:(if Result.is_ok r then 0 else 1);
  match r with
  | Error _ -> None
  | Ok () ->
    Pass.sim p "trace.replays" 1;
    Pass.sim p "trace.bytes" (replay_bytes spec);
    Pass.sample p "trace.replay_cycles" cycles;
    Some cycles

let acct (p : Pass.t) account =
  let module A = M3_sim.Account in
  Pass.sim p "acct.app_cycles" (A.get account A.App);
  Pass.sim p "acct.os_cycles" (A.get account A.Os);
  Pass.sim p "acct.xfer_cycles" (A.get account A.Xfer)

(* Engine and NoC counters, shared by every kind of system. *)
let count_engine (p : Pass.t) engine fabric =
  let events = Engine.processed engine in
  p.events <- p.events + events;
  Pass.sim p "sim.events" events;
  Pass.sim p "noc.packets" (Fabric.packets_sent fabric);
  Pass.sim p "noc.bytes" (Fabric.bytes_sent fabric)

(* fsck every m3fs image of [engine]; unmounted services count as
   errors too. *)
let fsck (p : Pass.t) engine services =
  List.iter
    (fun srv_name ->
      let ok =
        match M3.M3fs.image_of ~engine ~srv_name with
        | Some img -> Result.is_ok (M3.Fs_image.fsck img)
        | None -> false
      in
      Pass.sim p "m3fs.fsck_errors" (Bool.to_int (not ok));
      Pass.check p "fsck" ok)
    services

(* End of a system booted by the benchmark: exit codes of the client
   VPEs, leaked VPEs and endpoints, fsck, and every layer counter. The
   only VPEs allowed to outlive the run are the m3fs servers. [vpes]
   are the ids of VPEs that must hold no endpoint afterwards. *)
let finish (p : Pass.t) sys (b : Bootstrap.t) ~exits ~vpes =
  let engine = sys.engine in
  List.iter
    (fun iv -> Pass.check p "vpe_exit" (Process.Ivar.peek iv = Some 0))
    exits;
  count_engine p engine (Platform.fabric b.platform);
  let k = b.kernel in
  Pass.sim p "kernel.syscalls_handled" (Kernel.syscalls_handled k);
  List.iter
    (fun pe ->
      let d = M3_hw.Pe.dtu pe in
      Pass.feed p "dtu.sent" (Dtu.msgs_sent d);
      Pass.feed p "dtu.received" (Dtu.msgs_received d);
      Pass.feed p "dtu.dropped" (Dtu.msgs_dropped d);
      Pass.feed p "dtu.read" (Dtu.mem_bytes_read d);
      Pass.feed p "dtu.written" (Dtu.mem_bytes_written d))
    (Platform.pes b.platform);
  let leaked_vpes = Kernel.vpe_count k - List.length b.fs_services in
  Pass.sim p "kernel.leaked_vpes" leaked_vpes;
  Pass.check p "no_leaked_vpes" (leaked_vpes = 0);
  let leaked_eps =
    List.fold_left (fun acc vpe_id -> acc + Kernel.ep_entries k ~vpe_id) 0 vpes
  in
  Pass.sim p "kernel.leaked_eps" leaked_eps;
  Pass.check p "no_leaked_eps" (leaked_eps = 0);
  fsck p engine b.fs_services;
  M3.M3fs.forget ~engine
