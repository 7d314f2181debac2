module Stats = M3_sim.Stats

type row = {
  name : string;
  label : string;
  place : bool;
  count : int;
  sums : (string * int) list;
  hists : (string * Stats.t) list;
}

type acc = {
  place : bool;
  mutable n : int;
  totals : (string * int ref) list;
  dists : (string * Stats.t) list;
}

type t = (string * string, acc) Hashtbl.t

let create () : t = Hashtbl.create 64

(* [f key amount distribution?] for everything an event adds to its
   row: the span's length as ["cycles"], then the declared fields. *)
let iter_amounts f (d : Event.desc) =
  (match d.Event.span with
  | Event.Instant -> ()
  | Event.Ending n | Event.Starting n -> f "cycles" n true
  | Event.Window (a, b) -> f "cycles" (b - a) true);
  List.iter
    (fun (k, v) ->
      match v with
      | Event.Sum n -> f k n false
      | Event.Hist n -> f k n true
      | Event.Flag b -> f k (Bool.to_int b) false
      | Event.Id _ | Event.Int _ | Event.Text _ | Event.Time _ -> ())
    d.Event.fields

let fresh d place =
  let totals = ref [] and dists = ref [] in
  iter_amounts
    (fun k _ dist ->
      totals := (k, ref 0) :: !totals;
      if dist then dists := (k, Stats.create ()) :: !dists)
    d;
  { place; n = 0; totals = List.rev !totals; dists = List.rev !dists }

let add t d label place =
  let acc =
    match Hashtbl.find_opt t (d.Event.name, label) with
    | Some acc -> acc
    | None ->
      let acc = fresh d place in
      Hashtbl.add t (d.Event.name, label) acc;
      acc
  in
  acc.n <- acc.n + 1;
  iter_amounts
    (fun k x dist ->
      let r = List.assoc k acc.totals in
      r := !r + x;
      if dist then Stats.add (List.assoc k acc.dists) (float_of_int x))
    d

let record t ev =
  let d = Event.describe ev in
  add t d "" false;
  match d.Event.label with
  | Event.Unlabelled -> ()
  | Event.Key l -> add t d l false
  | Event.Place l -> add t d l true

let sink t =
  { Obs.sink_name = "metrics"; sink_emit = (fun ~at:_ ev -> record t ev) }

let rows t =
  List.sort
    (fun a b -> compare (a.name, a.label) (b.name, b.label))
    (Hashtbl.fold
       (fun (name, label) acc rows ->
         {
           name;
           label;
           place = acc.place;
           count = acc.n;
           sums = List.map (fun (k, r) -> (k, !r)) acc.totals;
           hists = acc.dists;
         }
         :: rows)
       t [])

let count t name label =
  match Hashtbl.find_opt t (name, label) with Some a -> a.n | None -> 0

let field t name label key get =
  Option.bind (Hashtbl.find_opt t (name, label)) (fun a -> List.assoc_opt key (get a))

let sum t name label key =
  Option.fold ~none:0 ~some:( ! ) (field t name label key (fun a -> a.totals))

let hist t name label key =
  Option.value ~default:(Stats.create ())
    (field t name label key (fun a -> a.dists))
