(** Chrome trace-event JSON exporter.

    Buffers events and renders the Trace Event "JSON Array Format",
    viewable in [chrome://tracing] and Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}).

    Track model: one process ([pid]) per PE plus one for the NoC;
    inside a PE, one thread ([tid]) per VPE (syscall, VPE-lifecycle and
    pipe activity), per DTU endpoint (send/receive/drop markers), and
    per m3fs session (request-handling slices); inside the NoC process,
    one thread per transfer pair and per directed link (occupancy
    slices, with the queueing delay in [args]). DTU message ids become
    flow arrows: send → NoC transfer → receive.

    One exporter may collect several simulation runs (the harness boots
    a fresh system per benchmark); call {!begin_run} before each run to
    open a fresh pid namespace ([runN/...] process names). *)

type t

val create : unit -> t

(** [begin_run t] starts a new pid namespace for the next simulation.
    Call before attaching {!sink} to that run's bus. *)
val begin_run : t -> unit

val sink : t -> Obs.sink

(** [to_string t] is the complete JSON document, as one string. *)
val to_string : t -> string

(** [write_channel] and [write_file] stream the document without
    copying it. *)
val write_channel : t -> out_channel -> unit

val write_file : t -> string -> unit
