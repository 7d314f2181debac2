(** Replica-level parallelism: run independent simulations on a small
    pool of OCaml domains.

    One simulation runs on one domain; sweeps and multi-cell
    benchmarks run several complete, independent systems concurrently.
    Results keep the input order; each thunk's simulated outcome is
    identical to a sequential run. *)

(** [run ~domains thunks] evaluates every thunk, using up to [domains]
    domains (including the caller's), and returns the results in input
    order. The first exception raised by a thunk (in input order) is
    re-raised after all thunks finished. [domains <= 1] degrades to
    [List.map]. *)
val run : domains:int -> (unit -> 'a) list -> 'a list
