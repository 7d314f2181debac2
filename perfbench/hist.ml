(* Exact integer histogram: value -> occurrences. Simulated latencies
   repeat heavily, so this stays small even over millions of samples,
   and percentiles are nearest-rank over the exact multiset. *)

type t = {
  counts : (int, int) Hashtbl.t;
  mutable n : int;
  mutable sum : int;
}

let create () = { counts = Hashtbl.create 64; n = 0; sum = 0 }

let add t v =
  Hashtbl.replace t.counts v
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts v));
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let count t = t.n
let sum t = t.sum

(* Nearest rank: the smallest value with at least p% of samples at or
   below it; 0 for an empty histogram. *)
let percentile t p =
  if t.n = 0 then 0
  else begin
    let values =
      List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) t.counts [])
    in
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n))) in
    let rec walk seen = function
      | [] -> 0
      | v :: rest ->
        let seen = seen + Hashtbl.find t.counts v in
        if seen >= rank then v else walk seen rest
    in
    walk 0 values
  end
