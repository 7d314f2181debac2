(* The event queue is a binary min-heap over (key, seq) kept as three
   parallel arrays, so scheduling and stepping allocate nothing once the
   arrays have grown: no entry record, no option, no result tuple.
   [seq] breaks ties FIFO. Closure slots at index >= size hold [noop],
   so popped events — and everything their closures capture — become
   collectable at once instead of staying pinned by the backing array. *)
type t = {
  id : int;
  mutable now : int;
  mutable processed : int;
  mutable running : bool;
  mutable size : int;
  mutable next_seq : int;
  mutable keys : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
}

(* Engines are created from concurrently running domains (the bench
   domain pool), so ids are minted atomically. *)
let next_id = Atomic.make 0

let noop () = ()

let create () =
  {
    id = Atomic.fetch_and_add next_id 1;
    now = 0;
    processed = 0;
    running = false;
    size = 0;
    next_seq = 0;
    keys = [||];
    seqs = [||];
    fns = [||];
  }

let id t = t.id

let now t = t.now

let grow t =
  let capacity = Array.length t.keys in
  let capacity' = if capacity = 0 then 64 else capacity * 2 in
  let keys = Array.make capacity' 0 and seqs = Array.make capacity' 0 in
  let fns = Array.make capacity' noop in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.fns 0 fns 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.fns <- fns

(* [before t i key seq]: does slot [i] come out before the entry
   (key, seq)? *)
let before t i key seq =
  let k = t.keys.(i) in
  k < key || (k = key && t.seqs.(i) < seq)

let set t i key seq f =
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.fns.(i) <- f

let move t ~src ~dst = set t dst t.keys.(src) t.seqs.(src) t.fns.(src)

(* Both sifts move a hole rather than swapping: parents (children) are
   shifted into it until the entry fits, then written once. *)
let rec sift_up t i key seq f =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent key seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent key seq f
  end
  else set t i key seq f

let rec sift_down t i key seq f =
  let left = (2 * i) + 1 in
  if left >= t.size then set t i key seq f
  else begin
    let right = left + 1 in
    let child =
      if right < t.size && before t right t.keys.(left) t.seqs.(left) then
        right
      else left
    in
    if before t child key seq then begin
      move t ~src:child ~dst:i;
      sift_down t child key seq f
    end
    else set t i key seq f
  end

let push t time f =
  if t.size = Array.length t.keys then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq f

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)"
         time t.now);
  push t time f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.now + delay) f

let step t =
  if t.size = 0 then false
  else begin
    let time = t.keys.(0) and f = t.fns.(0) in
    let last = t.size - 1 in
    t.size <- last;
    let key = t.keys.(last) and seq = t.seqs.(last) and g = t.fns.(last) in
    t.fns.(last) <- noop;
    if last > 0 then sift_down t 0 key seq g;
    t.now <- time;
    t.processed <- t.processed + 1;
    f ();
    true
  end

let enter_run t f =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) f

let run t =
  enter_run t (fun () ->
      while step t do
        ()
      done;
      t.now)

let run_until t ~time =
  enter_run t (fun () ->
      while t.size > 0 && t.keys.(0) <= time do
        ignore (step t)
      done;
      if t.now < time then t.now <- time)

let pending t = t.size

let processed t = t.processed
