(** Counter/histogram sink: a generic fold of {!Event.describe}.

    Every event counts into the row of its name (label [""]) and, when
    labelled ({!Event.label}), into the row of its name and label too.
    A row totals the event's [Sum], [Hist] and [Flag] fields (a flag
    totals its [true]s) and the length of its span as ["cycles"], and
    keeps a distribution of every [Hist] field and of ["cycles"].
    Attach via {!sink}; query after the run. The harness renders the
    rows as the per-experiment summary table
    ([M3_harness.Report.print_obs]). *)

type t

type row = {
  name : string;
  label : string;
  place : bool;  (** the label is a location ({!Event.Place}) *)
  count : int;
  sums : (string * int) list;  (** ["cycles"] first, then field order *)
  hists : (string * M3_sim.Stats.t) list;  (** the same order *)
}

val create : unit -> t
val sink : t -> Obs.sink

(** Every row, sorted by name, then label. *)
val rows : t -> row list

(** [count t name label] is the row's event count (0 if absent). *)
val count : t -> string -> string -> int

(** [sum t name label key] is the row's total of [key] (0 if absent). *)
val sum : t -> string -> string -> string -> int

(** [hist t name label key] is the row's distribution of [key] (empty if
    absent). *)
val hist : t -> string -> string -> string -> M3_sim.Stats.t
