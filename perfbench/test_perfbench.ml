(* Tests of the benchmark itself: its declarations, its agreement with
   BENCHMARK.json, and its correctness gate. The workloads run at their
   small size. *)

open M3_perfbench

let fail fmt = Printf.ksprintf failwith fmt

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let count hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_names () =
  let all =
    List.map (fun (w : Spec.workload) -> w.name) Spec.workloads
    @ List.map (fun (m : Spec.metric) -> m.name) (Spec.end_to_end @ Spec.per_layer)
  in
  List.iter
    (fun name ->
      if not (Spec.valid_name name && String.length name <= 64) then fail "bad name %S" name)
    all;
  if List.length (List.sort_uniq compare all) <> List.length all then
    fail "a metric or workload name is used twice"

(* BENCHMARK.json declares every metric and workload of [Spec], with the
   same unit, direction and reason, and nothing else. *)
let test_manifest () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let better = function Spec.Lower -> "lower" | Higher -> "higher" in
  List.iter
    (fun (m : Spec.metric) ->
      let entry =
        Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"" m.name
          m.unit_ (better m.better)
      in
      if not (contains json entry) then fail "BENCHMARK.json lacks %s" entry)
    (Spec.end_to_end @ Spec.per_layer);
  List.iter
    (fun (w : Spec.workload) ->
      let entry = Printf.sprintf "{\"name\": \"%s\", \"why\": \"%s\"}" w.name w.why in
      if not (contains json entry) then fail "BENCHMARK.json lacks %s" entry)
    Spec.workloads;
  let declared =
    List.length Spec.workloads + List.length Spec.end_to_end + List.length Spec.per_layer
  in
  if count json "\"name\":" <> declared then fail "BENCHMARK.json declares extra names"

let metric_names line =
  (* The result line's metric names, in order. *)
  let rec go i acc =
    match String.index_from_opt line i '"' with
    | None -> List.rev acc
    | Some j ->
      let k = String.index_from line (j + 1) '"' in
      let word = String.sub line (j + 1) (k - j - 1) in
      let acc =
        if k + 4 < String.length line && String.sub line (k + 1) 4 = ": {\"" then word :: acc
        else acc
      in
      go (k + 1) acc
  in
  List.filter (fun n -> n <> "metrics") (go 0 [])

(* Every workload, traced and untraced, prints exactly the declared
   metrics, passes every correctness check on the held-out seed, and
   hashes its traced and untraced passes alike. *)
let test_workloads () =
  List.iter
    (fun (w : Spec.workload) ->
      let r = Run.measure ~small:true w ~seed:Spec.heldout_seed ~seconds:0.0 ~trace:true in
      List.iter
        (fun (trace, declared) ->
          let line = Run.result_json r ~trace in
          let want = List.map (fun (m : Spec.metric) -> m.name) declared in
          if metric_names line <> want then fail "%s: metrics differ from the declaration" w.name)
        [ (false, Spec.end_to_end); (true, Spec.per_layer) ];
      let attempted, failed = Run.outcome r in
      if failed <> 0 || attempted = 0 then
        fail "%s: %d of %d failed: %s" w.name failed attempted
          (String.concat "; " (Run.failures r)))
    Spec.workloads

(* A correctness check forced to fail raises error_rate above zero. *)
let test_gate () =
  let w = Option.get (Spec.find "serve-open") in
  let error_rate force_fail =
    let r =
      Run.measure ?force_fail ~small:true w ~seed:Spec.default_seed ~seconds:0.0 ~trace:true
    in
    List.assoc "error_rate"
      (List.map (fun ((m : Spec.metric), v) -> (m.name, v)) (Run.metrics r ~trace:true))
  in
  if error_rate None <> 0.0 then fail "error_rate is not 0 on a clean run";
  if not (error_rate (Some "no_leaked_vpes") > 0.0) then
    fail "error_rate did not rise when a check failed"

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n%!" name)
    [
      ("metric names", test_names);
      ("BENCHMARK.json agrees", test_manifest);
      ("workloads emit the declared metrics", test_workloads);
      ("forced check failure raises error_rate", test_gate);
    ]
