(** Mutex-protected hash tables for process-global registries (env uid
    keyed), making them safe to touch from concurrent simulations on
    different domains. *)

module Table : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  val find_opt : ('k, 'v) t -> 'k -> 'v option
  val replace : ('k, 'v) t -> 'k -> 'v -> unit
  val add : ('k, 'v) t -> 'k -> 'v -> unit
end
