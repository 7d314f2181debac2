(** Shared plumbing for the experiment scenarios: every simulated cell
    boots a fresh M3 system through {!run}; {!run_m3} runs one measured
    application on it and collects wall-clock cycles plus the
    App/Os/Xfer breakdown. *)

(** One measured result. *)
type measure = {
  m_cycles : int; (** wall-clock cycles of the measured section *)
  m_app : int;
  m_os : int;
  m_xfer : int;
}

val zero_measure : measure
val add_measure : measure -> measure -> measure

(** When set, {!run} creates an event bus over every fresh engine and
    passes it to the callback — which attaches sinks — before the
    system boots, so even bring-up traffic is captured. One callback
    invocation per simulated system. *)
val observer : (M3_obs.Obs.t -> unit) option ref

(** [run ?platform_config ?fs ?fs_instances ?no_fs ?sched ?faults
    ?observe ?inspect ~label launch] is one simulated cell: a
    fresh engine, an event bus if {!observer} or [observe] is set
    (both attach to the same bus, [observer] first), the system booted
    by {!M3.Bootstrap.start} ([sched] with a VPE scheduler), then
    [launch sys] to start the cell's clients, the engine driven to
    idle, and every returned exit checked to be 0 (failing with
    [label] otherwise); a cell that judges its clients' exits itself
    returns [[]]. [inspect] sees
    the finished system before its m3fs registry entries are dropped.
    Returns the finished system; nothing keeps a reference to it. *)
val run :
  ?platform_config:M3_hw.Platform.config ->
  ?fs:(dram:M3_mem.Store.t -> M3.M3fs.config) ->
  ?fs_instances:int ->
  ?no_fs:bool ->
  ?sched:bool ->
  ?faults:M3_fault.Plan.t ->
  ?observe:(M3_obs.Obs.t -> unit) ->
  ?inspect:(M3.Bootstrap.t -> unit) ->
  label:string ->
  (M3.Bootstrap.t -> int M3_sim.Process.Ivar.ivar list) ->
  M3.Bootstrap.t

(** [other m] is everything that is not a data transfer — the paper's
    "Other" category in Fig. 3. *)
val other : measure -> int

(** [serialized m] reports the charged work total as the cycle count —
    the paper forces M3 not to exploit multiple PEs (§5.1), so for
    benchmarks whose two VPEs overlap in our simulator, the serialized
    equivalent (sum of both VPEs' charged cycles) is the comparable
    number. *)
val serialized : measure -> measure

(** [run_m3 ?pe_count ?dram_mib ?core_at ?seeds ?no_fs ?sched ?faults
    ?inspect app] boots a fresh system through {!run} (kernel on PE 0 +
    m3fs seeded with [seeds]) and runs [app] in a VPE. [app] receives the
    environment and a [measured] bracket: everything inside the
    bracket contributes to the returned measure (wall cycles and
    account delta — including work that child VPEs charge while it
    runs). [faults] attaches a fault plan before boot; [inspect] runs
    against the platform after the app has exited (e.g. to collect DTU
    retry/refund statistics). [sched] boots the kernel with a VPE
    scheduler (suspend/resume, time-multiplexing). *)
val run_m3 :
  ?pe_count:int ->
  ?dram_mib:int ->
  ?core_at:(int -> M3_hw.Core_type.t) ->
  ?seeds:M3.M3fs.seed list ->
  ?no_fs:bool ->
  ?sched:bool ->
  ?faults:M3_fault.Plan.t ->
  ?inspect:(M3_hw.Platform.t -> unit) ->
  (M3.Env.t -> measured:((unit -> unit) -> unit) -> unit) ->
  measure

(** [run_linux ?cache_ideal ?arch ?seeds f] runs [f] against a fresh
    Linux machine with the seeds applied, measuring everything [f]
    does. *)
val run_linux :
  ?cache_ideal:bool ->
  ?arch:M3_linux.Arch.t ->
  ?seeds:M3.M3fs.seed list ->
  (M3_linux.Machine.t -> unit) ->
  measure

(** [mounted env] mounts the root filesystem, failing loudly. *)
val mounted : M3.Env.t -> unit

val fmt_k : int -> string
(** cycles as "123.4 K" / "1.23 M" *)
