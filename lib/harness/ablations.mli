(** Ablations of the design decisions DESIGN.md calls out. Not paper
    figures — these quantify why the system is built the way it is.

    A1 — location-request batching: reading a fragmented file while
    fetching 1..16 extent locations per m3fs request. The paper's
    client fetches one at a time; batching trades session-protocol
    round-trips against wasted capability slots.

    A2 — pipe ringbuffer size: pushing 2 MiB through rings of
    4 KiB..256 KiB. The paper places pipe rings in DRAM precisely so
    they can be large (§4.5.7); small rings serialize writer and
    reader on the notification protocol.

    A3 — NoC hop latency: the null syscall against per-hop router
    delays of 1..12 cycles, versus a bulk 2 MiB read. Syscalls are
    latency-bound; bulk transfers are serialization-bound and barely
    notice.

    A4 — endpoint count: reading a 32-extent file with DTUs of 4, 8
    and 16 endpoints. Fewer endpoints mean more multiplexing
    (activate syscalls) — the cost of the paper's choice of 8.

    A6 — NoC switching mode: the full OS stack (null syscall + 2 MiB
    read) under the packet model vs the wormhole model of the real
    Tomahawk NoC. The paper's experiments are serialization-bound, so
    the end-to-end numbers barely move — the substrate-fidelity
    argument of DESIGN.md, measured.

    A5 — multiple m3fs instances (the §7 future-work item): eight
    parallel find instances against one or two filesystem services,
    clients sharded across instances by mount. State-free sharding
    needs none of the synchronization protocols §7 anticipates, and
    roughly halves the service queueing that dominates Fig. 6's find
    curve. *)

type point = { x : int; cycles : int; aux : int }

type t = {
  loc_batch : point list;       (** aux = location requests *)
  ring_size : point list;       (** x in KiB *)
  hop_latency : point list;     (** aux = bulk-read cycles *)
  ep_count : point list;        (** aux = activate syscalls *)
  service_instances : point list; (** x = m3fs instances, 8 clients *)
  switching_mode : point list;
      (** x = 0 packet / 1 wormhole; cycles = syscall, aux = 2 MiB read *)
}

val run : unit -> t
val print : Format.formatter -> t -> unit

(** [hop_latency_cell hop] — one A3 cell at [hop] cycles per router
    hop; [cycles] is the null syscall, [aux] the bulk read (exposed for
    tests). *)
val hop_latency_cell : int -> point

(** [service_instances_bench ~clients ~instances] — average per-client
    cycles of the A5 scenario (exposed for tests). *)
val service_instances_bench : clients:int -> instances:int -> int
