(* bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload of the repository benchmark for S seconds of host
   time and prints a report, then one JSON result line. Run it from the
   repository root, through perfbench/run.py. *)

open M3_perfbench

let () =
  let workload = ref "" and seed = ref Spec.default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
  in
  let usage =
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads)
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Spec.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    prerr_endline usage;
    exit 2
  | Some w ->
    let trace = !trace = 1 in
    let r = Run.measure w ~seed:!seed ~seconds:!seconds ~trace in
    Run.report Format.std_formatter r ~trace;
    if trace then
      Printf.printf "  spans written to %s\n" (Run.write_spans r ~dir:"_perfbench");
    print_endline (Run.result_json r ~trace)
