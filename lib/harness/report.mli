(** Reproduction verdict: checks the paper's qualitative claims against
    the measured results and prints a PASS/FAIL summary — the same
    checks the test suite enforces, rendered for humans at the end of
    [m3_repro run --all]. *)

type verdict = {
  claim : string;    (** what the paper says *)
  measured : string; (** what we got *)
  pass : bool;
}

(** [validate ~fig3 ~fig4 ~fig5 ~fig7 ~t1 ~t2 ()] evaluates every
    claim that the given results cover (all arguments optional). *)
val validate :
  ?fig3:Fig3.t ->
  ?fig4:Fig4.point list ->
  ?fig5:Fig5.row list ->
  ?fig6:Fig6.curve list ->
  ?fig7:Fig7.t ->
  ?t1:Tables.t1 ->
  ?t2:Tables.t2 ->
  unit ->
  verdict list

val print : Format.formatter -> verdict list -> unit

(** [all_pass vs] *)
val all_pass : verdict list -> bool

(** [print_obs ppf m] renders the rows a traced run collected as one
    table: a row per event kind, then the labelled rows of each dotted
    family ([serve.*] per pool, [dtu.send]/[dtu.reply] per endpoint),
    one line per label with each kind's count and the kinds' totals and
    p50/p95/p99 merged. Key columns are sized from the longest key;
    locations (endpoints, links) show only the busiest eight. *)
val print_obs : Format.formatter -> M3_obs.Metrics.t -> unit
