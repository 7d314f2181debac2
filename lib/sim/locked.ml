(* Mutex-protected hash tables for process-global registries.

   A few libm3 layers keep process-global tables keyed by env uid
   (per-env VFS and file state, EP-multiplexer counters): entries of
   concurrent simulations are disjoint by key, but [Hashtbl] itself is
   not safe to mutate from two domains — a racing resize corrupts every
   bucket. This wrapper makes those registries domain-safe without
   changing their shape. The lock is per-table and uncontended in
   practice (disjoint keys, short critical sections). *)

module Table = struct
  type ('k, 'v) t = {
    lock : Mutex.t;
    tbl : ('k, 'v) Hashtbl.t;
  }

  let create n = { lock = Mutex.create (); tbl = Hashtbl.create n }

  let with_lock t f = Mutex.protect t.lock f

  let find_opt t k = with_lock t (fun () -> Hashtbl.find_opt t.tbl k)
  let replace t k v = with_lock t (fun () -> Hashtbl.replace t.tbl k v)
  let add t k v = with_lock t (fun () -> Hashtbl.add t.tbl k v)
end
