let src = Logs.Src.create "m3.sim.process" ~doc:"simulation processes"

module Log = (val Logs.src_log src : Logs.LOG)

type status =
  | Running
  | Finished
  | Failed of exn

(* Every wait, park and suspend takes one path that allocates no closure
   or effect value of its own: the caller arranges its wakeup first (a
   wait schedules [resume]; a park leaves a queue entry, a suspend a
   resume function), then [block]s on the prebuilt [Park] effect, whose
   handler only stores the continuation in [parked]. [resume] clears the
   slot before continuing, so the record never pins a spent one. *)
type t = {
  name : string;
  engine : Engine.t;
  mutable state : status;
  mutable kill_requested : bool;
  as_current : t option;  (* [Some self], built once for [with_current] *)
  park_eff : unit Effect.t;
  mutable parked : (unit, unit) Effect.Deep.continuation option;
  resume : unit -> unit;  (* the resume event, built once *)
}

exception Killed

type _ Effect.t += Park : t -> unit Effect.t

(* The process currently executing, so that [wait]/[suspend] need no
   explicit handle. Domain-local: a process runs to its next effect
   without interleaving *on its own domain*, but independent engines
   on a domain pool run their own processes concurrently, and a shared
   ref would cross-wire their [wait]/[suspend] to the wrong process. *)
let current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* [with_current p f a b] runs [f p a b] as process [p], restoring the
   previous current process afterwards. A [match ... with exception]
   rather than [Fun.protect]: this runs on every resume, and the
   protect closure and its handler record would be allocated each time. *)
let with_current p f a b =
  let cell = Domain.DLS.get current in
  let saved = !cell in
  cell := p.as_current;
  match f p a b with
  | () -> cell := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    cell := saved;
    Printexc.raise_with_backtrace e bt

(* The continuation's next step: the kill point of every wait/suspend. *)
let step p k v =
  if p.kill_requested then Effect.Deep.discontinue k Killed
  else Effect.Deep.continue k v

let resume p =
  match p.parked with
  | Some k ->
    p.parked <- None;
    with_current p step k ()
  | None -> ()

let self () =
  match !(Domain.DLS.get current) with
  | Some p -> p
  | None -> failwith "Process.wait/suspend called outside a process"

let check_killed p = if p.kill_requested then raise Killed

let spawn engine ~name f =
  let rec p =
    { name; engine; state = Running; kill_requested = false;
      as_current = Some p; park_eff = Park p; parked = None;
      resume = (fun () -> resume p) }
  in
  let on_park = Some (fun k -> p.parked <- Some k) in
  let finish () = if p.state = Running then p.state <- Finished in
  let fail e =
    Log.debug (fun m -> m "process %s failed: %s" name (Printexc.to_string e));
    p.state <- Failed e
  in
  let open Effect.Deep in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          match e with
          | Killed -> finish ()
          | e -> fail e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Park q when q == p -> on_park
          | _ -> None);
    }
  in
  let start p f handler =
    match_with
      (fun () ->
        check_killed p;
        f ())
      () handler
  in
  Engine.schedule engine ~delay:0 (fun () -> with_current p start f handler);
  p

let name p = p.name

let status p = p.state

let kill p = if p.state = Running then p.kill_requested <- true

let block p = Effect.perform p.park_eff

let wait n =
  if n < 0 then invalid_arg "Process.wait: negative duration";
  let p = self () in
  check_killed p;
  Engine.schedule p.engine ~delay:n p.resume;
  block p

(* [register]'s resume only schedules the resume event, so it may fire
   before the process blocks. The value cell is the one-shot guard. *)
let suspend register =
  let p = self () in
  check_killed p;
  let woken = ref None in
  register (fun v ->
      if Option.is_none !woken then begin
        woken := Some v;
        Engine.schedule p.engine ~delay:0 p.resume
      end);
  block p;
  Option.get !woken

module Ivar = struct
  type 'a state_ =
    | Empty of ('a -> unit) list
    | Full of 'a

  type 'a ivar = { mutable cell : 'a state_ }

  let create () = { cell = Empty [] }

  let fill iv v =
    match iv.cell with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty readers ->
      iv.cell <- Full v;
      List.iter (fun resume -> resume v) (List.rev readers)

  let is_filled iv = match iv.cell with Full _ -> true | Empty _ -> false

  let peek iv = match iv.cell with Full v -> Some v | Empty _ -> None

  let read iv =
    match iv.cell with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.cell with
          | Full v -> resume v
          | Empty readers -> iv.cell <- Empty (resume :: readers))
end

module Waitq = struct
  (* An entry is a parked process ([e_proc], woken through its prebuilt
     resume event with the value left in [e_value]) or a resume function
     from [suspend] ([e_resume]), which lets Dtu.wait_any wait on several
     queues at once and cancel the losers after one fires. [e_live] is
     the one-shot guard: a woken or cancelled entry neither counts as a
     waiter nor absorbs a wakeup (which would silently lose it). *)
  type 'a entry = {
    mutable e_live : bool;
    e_proc : t option;
    e_resume : 'a -> unit;
    mutable e_value : 'a option;
  }

  type 'a waitq = { mutable entries : 'a entry list (* newest first *) }

  let create () = { entries = [] }

  let add q e =
    (match q.entries with
    | [] -> ()
    | _ -> q.entries <- List.filter (fun e -> e.e_live) q.entries);
    q.entries <- e :: q.entries

  let register q resume =
    let e = { e_live = true; e_proc = None; e_resume = resume; e_value = None } in
    add q e;
    e

  let cancel e = e.e_live <- false

  let park q =
    let p = self () in
    check_killed p;
    let e =
      { e_live = true; e_proc = p.as_current; e_resume = ignore; e_value = None }
    in
    add q e;
    block p;
    Option.get e.e_value

  let wake v e =
    if e.e_live then begin
      e.e_live <- false;
      match e.e_proc with
      | Some p ->
        e.e_value <- Some v;
        Engine.schedule p.engine ~delay:0 p.resume
      | None -> e.e_resume v
    end

  (* Oldest first, straight from the newest-first list. *)
  let rec wake_all v = function
    | [] -> ()
    | e :: older ->
      wake_all v older;
      wake v e

  let broadcast q v =
    match q.entries with
    | [] -> ()
    | entries ->
      q.entries <- [];
      wake_all v entries

  let waiters q =
    List.fold_left (fun n e -> if e.e_live then n + 1 else n) 0 q.entries
end
