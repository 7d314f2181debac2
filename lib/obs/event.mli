(** Structured observability events.

    One constructor per instrumentation point in the simulated system.
    Payloads are plain integers and strings so the event layer sits
    below every other library (it depends only on [m3_sim]): PEs,
    endpoints and VPEs are identified by number, syscall and filesystem
    operations by their wire-protocol name.

    [msg] fields carry a bus-unique message id ({!Obs.next_msg}) that
    links a DTU send to its NoC transfer, per-hop link occupancy and
    the eventual receive — the Chrome exporter turns these into flow
    arrows. [msg = 0] means "not correlated" (emission was off when the
    id would have been drawn, or the transfer is untagged kernel
    plumbing). *)

type t =
  | Dtu_send of {
      pe : int;          (** sending PE *)
      ep : int;          (** send endpoint *)
      dst_pe : int;
      dst_ep : int;
      bytes : int;       (** wire size: header + payload *)
      msg : int;
      reply : bool;      (** [true] for DTU reply commands *)
    }
  | Dtu_receive of { pe : int; ep : int; src_pe : int; bytes : int; msg : int }
  | Dtu_drop of { pe : int; ep : int; src_pe : int; msg : int; reason : string }
  | Dtu_read of { pe : int; mem_pe : int; bytes : int; msg : int }
      (** memory-endpoint read: [bytes] pulled from [mem_pe]'s store *)
  | Dtu_write of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Noc_xfer of {
      src : int;
      dst : int;
      bytes : int;       (** payload handed to the fabric *)
      depart : int;      (** cycle the first packet enters the NoC *)
      arrive : int;      (** cycle the last byte reaches [dst] *)
      msg : int;
    }
  | Noc_link of {
      link_src : int;    (** directed link: from this router... *)
      link_dst : int;    (** ...to this one *)
      enter : int;       (** cycle the packet head acquires the link *)
      leave : int;       (** cycle the link is released *)
      queued : int;      (** cycles spent waiting for the link *)
      msg : int;
    }
  | Syscall_enter of { pe : int; vpe : int; op : string }
  | Syscall_exit of { pe : int; vpe : int; op : string; ok : bool; cycles : int }
      (** [cycles] is the client-observed latency since the matching
          [Syscall_enter] *)
  | Fs_request of { pe : int; session : int; op : string }
      (** emitted by the m3fs server; [session] is 0 on the kernel
          channel *)
  | Fs_response of { pe : int; session : int; op : string; cycles : int }
  | Fs_shard of { pe : int; shard : int; srv : string }
      (** client-side: the sharded VFS routed a path to shard [shard]
          (service [srv]) of its mount's ring *)
  | Fs_queue of { pe : int; srv : string; depth : int }
      (** server-side: ringbuffer backlog observed by instance [srv]
          when it picked up a request (emitted only when the instance
          runs with [emit_queue]) *)
  | Fs_cache_hit of { pe : int; kind : string }
      (** client-side mount cache served this lookup; [kind] is
          "attr", "extent", "open" or "dir" *)
  | Fs_cache_miss of { pe : int; kind : string }
  | Fs_cache_inval of { pe : int; kind : string }
      (** client-side: a notification (or local mutation) dropped or
          refreshed cached state; [kind] is the wire kind ("ino",
          "path", "both") or "local" *)
  | Fs_cache_flush of { pe : int; gen : int; reason : string }
      (** client-side wholesale flush; [gen] is the new cache
          generation, [reason] "gap", "crash" or "manual" *)
  | Fs_inval_send of { pe : int; srv : string; session : int; kind : string }
      (** server-side: m3fs broadcast one invalidation to a registered
          session (attempted — the send may still be dropped) *)
  | Vpe_create of { vpe : int; pe : int; name : string }
  | Vpe_start of { vpe : int; pe : int; name : string }
  | Vpe_exit of { vpe : int; pe : int; code : int }
  | Pipe_push of { vpe : int; pe : int; bytes : int }
  | Pipe_pop of { vpe : int; pe : int; bytes : int }
  | Pe_spawn of { pe : int; name : string }
  | Pe_halt of { pe : int }
  | Fault_drop of { src : int; dst : int; bytes : int; msg : int; reason : string }
      (** an attached fault plan dropped this transfer in flight *)
  | Fault_corrupt of { src : int; dst : int; bytes : int; msg : int }
      (** an attached fault plan corrupted this transfer's payload *)
  | Fault_stall of { pe : int; cycles : int }
      (** an attached fault plan stalled a DTU command on [pe] *)
  | Dtu_nack of { pe : int; ep : int; dst_pe : int; msg : int; reason : string }
      (** sender-side: delivery to [dst_pe] failed and the send credit
          was refunded (the message may still be retransmitted) *)
  | Dtu_retry of { pe : int; dst_pe : int; msg : int; attempt : int; backoff : int }
      (** sender-side: retransmit number [attempt] scheduled after
          [backoff] cycles *)
  | Fault_pe_crash of { pe : int }
      (** an attached fault plan permanently killed [pe] (core + DTU) *)
  | Vpe_crash of { vpe : int; pe : int }
      (** the kernel heartbeat prober found this VPE's PE dead *)
  | Vpe_abort of { vpe : int; pe : int; reason : string }
      (** the kernel aborted the VPE and reclaimed its resources *)
  | Vpe_restart of { vpe : int; pe : int; name : string; attempt : int }
      (** a supervisor relaunched a crashed program; [vpe]/[pe] are the
          replacement's, [attempt] counts restarts (1-based) *)
  | Kernel_heartbeat of { pe : int; probed : int; dead : int }
      (** one prober sweep from the kernel on [pe]: [probed] running
          VPEs pinged, [dead] of them found unresponsive *)
  | Serve_admit of { pe : int; pool : string; seq : int; depth : int }
      (** dispatcher admitted request [seq] with [depth] requests
          already queued or in flight *)
  | Serve_reject of { pe : int; pool : string; seq : int; depth : int }
      (** admission control turned request [seq] away with
          [E_overload]; [depth] is the queue depth that tripped the
          watermark *)
  | Serve_batch of { pe : int; pool : string; worker : int; size : int }
      (** dispatcher coalesced [size] requests into one DTU message to
          worker [worker] *)
  | Serve_done of { pe : int; pool : string; seq : int; cycles : int }
      (** request [seq] completed; [cycles] is dispatcher-observed
          latency from admission to worker reply *)
  | Serve_restart of { pe : int; pool : string; worker : int; attempt : int }
      (** the dispatcher's watchdog replaced crashed worker [worker];
          [pe] is the replacement's PE *)
  | Vpe_suspend of { vpe : int; pe : int; bytes : int }
      (** the scheduler captured this VPE's state off [pe]; [bytes] is
          the SPM image size pulled over the NoC *)
  | Vpe_resume of { vpe : int; pe : int; from_pe : int; cold : bool }
      (** the scheduler placed the VPE on [pe]. [from_pe] is the PE it
          was suspended on (equal to [pe] for an in-place resume);
          [cold] marks a first placement of a VPE created without a PE *)
  | Sched_switch of { pe : int; out_vpe : int; in_vpe : int }
      (** time-multiplex handoff on [pe]: [out_vpe] was suspended so
          [in_vpe] can run ([-1] = none, for a pure preemption or a
          placement onto a free PE) *)
  | Pool_scale of { pe : int; pool : string; dir : int; active : int }
      (** an elastic pool grew ([dir = +1]) or shrank ([dir = -1]) its
          worker set; [active] is the new live-worker count *)
  | Gw_throttle of { pe : int; pool : string; client : int; seq : int }
      (** the gateway's token bucket shed request [seq] from [client]
          with [E_throttled] — the request was never enqueued *)
  | Gw_break of { pe : int; pool : string; worker : int; phase : string }
      (** circuit-breaker transition on worker seat [worker]; [phase]
          is "trip" (Closed/Half-open → Open), "probe" (Open →
          Half-open, one probe request in flight) or "close" (probe
          succeeded).  The event name is [gw.break.<phase>]. *)
  | Gw_upgrade of { pe : int; pool : string; target : string; cycles : int }
      (** a planned hot upgrade committed: [target] names the swapped
          unit (["worker<i>"] or an m3fs service), [cycles] is the
          swap latency from drain start to the new generation serving *)
  | Kv_op of { pe : int; store : string; op : string; bucket : int; dup : bool }
      (** store [store] executed a KV operation ([op] one of "get"
          "put" "delete" "scan") against bucket directory [bucket];
          [dup] marks a put skipped by the exactly-once dedup header.
          The event name is [kv.<op>]. *)

(** {1 Self-description}

    [describe] is the one place that knows each constructor: the log
    line, {!Metrics}, {!Chrome} and the harness summary are generic
    folds over it, so adding an event touches only this module. *)

(** A field's value, tagged with what the consumers do with it. Every
    field shows in the log line; Chrome's [args] carry the [Int],
    [Sum], [Hist] and [Flag] fields; {!Metrics} totals [Sum] and
    [Hist] fields, counts [true] flags and keeps a distribution of
    every [Hist] field. *)
type value =
  | Id of int  (** locates the event; the track already shows it *)
  | Int of int  (** a plain number: message ids, sequence numbers *)
  | Sum of int  (** a quantity worth a total, e.g. bytes *)
  | Hist of int  (** a quantity worth a distribution: depths, sizes *)
  | Flag of bool
  | Text of string  (** names and reasons; titles carry them *)
  | Time of int  (** a cycle stamp or length the span is built from *)

(** Where the Chrome exporter draws the event. *)
type track =
  | Vpe of int * int  (** [(pe, vpe)] *)
  | Ep of int * int  (** [(pe, ep)]: a DTU endpoint *)
  | Mem of int  (** a PE's memory-endpoint traffic *)
  | Session of int * int  (** [(pe, session)]: m3fs request handling *)
  | Core of int  (** the PE's core: kernel, scheduler, dispatcher *)
  | Pe of int  (** the PE's own row *)
  | Xfer of int * int  (** NoC transfers from [src] to [dst] *)
  | Link of int * int  (** one directed NoC link *)

(** The simulated time an event covers. [Instant] is a one-cycle
    marker at the emission cycle; the others are slices whose length
    {!Metrics} records as the field ["cycles"]. *)
type span =
  | Instant
  | Ending of int  (** [n] cycles ending at the emission cycle *)
  | Starting of int  (** [n] cycles starting at the emission cycle *)
  | Window of int * int  (** absolute cycles [\[start, stop)] *)

(** The event's part in a message's flow arrow (by [msg] id; id 0 draws
    none): sends start it, NoC transfers step through it mid-slice and
    receives end it. *)
type flow = No_flow | Flow_start of int | Flow_step of int | Flow_end of int

(** The row an event counts into under its name, besides the name's
    total. [Key] values come from a small vocabulary (operations,
    pools, services, kinds); [Place] values are locations (endpoints,
    links) that grow with the machine, so summaries show only the
    busiest. Events of one dotted family ([serve.admit],
    [serve.reject], ...) that share a label are summarised together. *)
type label = Unlabelled | Key of string | Place of string

type desc = {
  name : string;  (** stable dotted kind name, e.g. ["dtu.send"] *)
  cat : string;  (** Chrome category *)
  track : track option;  (** [None]: not drawn; a later event is *)
  title : string;  (** Chrome slice name *)
  span : span;
  flow : flow;
  label : label;
  fields : (string * value) list;
      (** the payload in record order, less what the name carries
          ([reply], [phase], [op]) *)
}

val describe : t -> desc

(** [name t] is [(describe t).name]. *)
val name : t -> string

(** Stable, deterministic rendering, [name key=value ...] over the
    described fields — the determinism test compares byte-for-byte. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
