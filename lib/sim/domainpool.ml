(* Replica-level parallelism: run independent simulations on a small
   pool of OCaml domains.

   One simulation is one engine on one domain; this module
   parallelizes *across* simulations — the bench sweeps and the
   warm-cache cells run several complete, independent systems. They
   share no mutable simulation state; the only process-wide tables
   left are keyed by engine id or env uid (m3fs images and servers,
   per-env libm3 state), and those are domain-safe (atomic ids,
   mutex-protected tables). Each thunk's simulation stays fully
   deterministic: nothing about host scheduling leaks into simulated
   time. *)

let run ~domains thunks =
  let jobs = Array.of_list thunks in
  let n = Array.length jobs in
  let d = max 1 (min domains n) in
  if d = 1 then List.map (fun f -> f ()) thunks
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          try results.(i) <- Some (jobs.(i) ())
          with e -> errors.(i) <- Some e
      done
    in
    let doms = Array.init (d - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join doms;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end
