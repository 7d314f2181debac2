(* Host spans around the public calls the benchmark makes into each
   layer. A span carries host time, simulated cycles and minor-heap
   words. Simulated processes interleave, so a span's host time also
   covers other VPEs' events; self time subtracts only the child spans
   recorded on the same VPE (or on the host, for spans outside any
   VPE). Spans stay in memory and are written out when the run ends. *)

type span = {
  name : string;
  owner : int;  (** VPE uid, or [host] *)
  parent : int;  (** index of the enclosing span on [owner]; -1 at top *)
  t0 : float;
  mutable t1 : float;
  c0 : int;
  mutable c1 : int;
  w0 : float;
  mutable w1 : float;
  mutable child_s : float;  (** host seconds covered by direct children *)
}

let host = -1

type t = {
  on : bool;
  mutable spans : span array;
  mutable n : int;
  stacks : (int, int list) Hashtbl.t;
}

let create ~on = { on; spans = [||]; n = 0; stacks = Hashtbl.create 16 }

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 64 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* [record t ~name ~owner ~clock f] runs [f] inside a span; a plain call
   when the run is untraced. [clock] reads the simulated cycle. *)
let record t ~name ~owner ~clock f =
  if not t.on then f ()
  else begin
    let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks owner) in
    let parent = match stack with p :: _ -> p | [] -> -1 in
    let s =
      {
        name;
        owner;
        parent;
        t0 = Probe.now ();
        t1 = 0.0;
        c0 = clock ();
        c1 = 0;
        w0 = Gc.minor_words ();
        w1 = 0.0;
        child_s = 0.0;
      }
    in
    let id = push t s in
    Hashtbl.replace t.stacks owner (id :: stack);
    let close () =
      s.t1 <- Probe.now ();
      s.c1 <- clock ();
      s.w1 <- Gc.minor_words ();
      Hashtbl.replace t.stacks owner stack;
      if parent >= 0 then begin
        let p = t.spans.(parent) in
        p.child_s <- p.child_s +. (s.t1 -. s.t0)
      end
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

let host_s s = s.t1 -. s.t0
let self_s s = host_s s -. s.child_s

(* Host seconds of every span called [name]. *)
let durations t name =
  let acc = ref [] in
  iter t (fun s -> if s.name = name then acc := host_s s :: !acc);
  List.rev !acc

(* Per span name: (count, host s, self s, sim cycles, minor words), in
   first-seen order. *)
let summary t =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  iter t (fun s ->
      let n, h, self, c, w =
        match Hashtbl.find_opt table s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0.0, 0.0, 0, 0.0)
      in
      Hashtbl.replace table s.name
        (n + 1, h +. host_s s, self +. self_s s, c + (s.c1 - s.c0), w +. (s.w1 -. s.w0)));
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order

let write t path =
  let oc = open_out path in
  iter t (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"owner\":%d,\"parent\":%d,\"host_ns\":%.0f,\"self_ns\":%.0f,\"cycles\":%d,\"minor_words\":%.0f}\n"
        s.name s.owner s.parent
        (host_s s *. 1e9) (self_s s *. 1e9) (s.c1 - s.c0) (s.w1 -. s.w0));
  close_out oc
