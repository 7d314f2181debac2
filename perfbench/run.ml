(* Runs a workload in passes for a given host time and turns the passes
   into the declared metrics. With tracing off every pass is untraced;
   the traced run alternates untraced and traced passes, so the tracing
   overhead is measured inside one run. *)

type pass = {
  p : Pass.t;
  wall_s : float;
  gc : Probe.gc;  (** GC counter deltas over the pass *)
  rss_mib : float;  (** peak resident set of the pass's process *)
  top_heap_mib : float;
  digest : string;
}

let run_pass ?force_fail ~small (w : Spec.workload) ~seed ~traced =
  let p = Pass.create ?force_fail ~traced () in
  let g0 = Probe.gc () in
  let t0 = Probe.now () in
  Pass.guard p w.name (fun () -> w.run ~small p ~seed);
  let wall_s = Probe.now () -. t0 in
  let g1 = Probe.gc () in
  let gc =
    {
      Probe.minor_words = g1.minor_words -. g0.minor_words;
      major_words = g1.major_words -. g0.major_words;
      major_collections = g1.major_collections - g0.major_collections;
    }
  in
  {
    p;
    wall_s;
    gc;
    rss_mib = Probe.peak_rss_mib ();
    top_heap_mib = Probe.top_heap_mib ();
    digest = Pass.digest p;
  }

(* Runs [f] in a child process and returns its result. Every pass gets
   a fresh process, as a user regenerating a figure would: the program
   registry keeps each launched program's closure, and with it the
   system it captured, for the life of the process, and program names
   carry process-global counters, so passes sharing one process would
   neither free their DRAM nor send identical bytes. *)
let isolated (f : unit -> pass) : (pass, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (pass, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : (pass, string) result =
      try Marshal.from_channel ic with End_of_file | Failure _ -> Error "no result"
    in
    close_in ic;
    match (Unix.waitpid [] pid, r) with
    | (_, Unix.WEXITED 0), r -> r
    | (_, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c)), _ ->
      Error (Printf.sprintf "pass process ended with status %d" c)

(* A pass whose process died counts as one failed operation. *)
let lost ~traced msg =
  let p = Pass.create ~traced () in
  p.attempted <- 1;
  Pass.fail p msg;
  { p; wall_s = 0.0; gc = Probe.gc (); rss_mib = 0.0; top_heap_mib = 0.0; digest = "" }

type run = {
  workload : Spec.workload;
  seed : int;
  untraced : pass list;
  traced : pass list;
}

(* Passes until [seconds] of host time are used: another pass starts
   only if the previous one would still fit. The traced run alternates
   untraced and traced passes and makes at least one of each. *)
let measure ?force_fail ?(small = false) (w : Spec.workload) ~seed ~seconds ~trace =
  let start = Probe.now () in
  let rec loop acc i =
    let traced = trace && i mod 2 = 1 in
    let r =
      match isolated (fun () -> run_pass ?force_fail ~small w ~seed ~traced) with
      | Ok r -> r
      | Error msg -> lost ~traced msg
    in
    let acc = r :: acc in
    let used = Probe.now () -. start in
    let need = if trace then 2 else 1 in
    if i + 1 < need || used +. r.wall_s <= seconds then loop acc (i + 1)
    else List.rev acc
  in
  let passes = loop [] 0 in
  {
    workload = w;
    seed;
    untraced = List.filter (fun r -> not r.p.traced) passes;
    traced = List.filter (fun r -> r.p.traced) passes;
  }

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let all r = r.untraced @ r.traced

(* The simulation is deterministic: every pass of a run, traced or
   not, must hash alike. *)
let digests_agree r =
  match all r with
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y.digest = x.digest) rest

(* Operations attempted and failed over every pass, with the digest
   comparison as one more check. *)
let outcome r =
  let sum f = List.fold_left (fun acc x -> acc + f x.p) 0 (all r) in
  ( sum (fun p -> p.attempted) + 1,
    sum (fun p -> p.failed) + Bool.to_int (not (digests_agree r)) )

let failures r =
  List.concat_map (fun x -> List.rev x.p.failures) (all r)
  @ if digests_agree r then [] else [ "simulated digest differs between passes" ]

let host_s x = x.wall_s -. x.p.setup_s

let end_to_end r =
  let us = r.untraced in
  let p = (List.hd us).p in
  let f = float_of_int in
  let sim_cycles = f p.sim_cycles in
  [
    ("wall_s", median (List.map (fun x -> x.wall_s) us));
    ("setup_s", median (List.map (fun x -> x.p.setup_s) us));
    ("events_per_s", median (List.map (fun x -> ratio (f x.p.events) (host_s x)) us));
    ("peak_rss_mib", median (List.map (fun x -> x.rss_mib) us));
    ( "minor_words_per_event",
      median (List.map (fun x -> ratio x.gc.minor_words (f x.p.events)) us) );
    ("sim_cycles", sim_cycles);
    ("sim_p50_cycles", f (Hist.percentile p.latency 50.0));
    ("sim_p99_cycles", f (Hist.percentile p.latency 99.0));
    ("sim_rpmc", ratio (f p.completed *. 1e6) sim_cycles);
  ]

let per_layer r =
  let us = r.untraced and ts = r.traced in
  let t = (List.hd ts).p in
  let f = float_of_int in
  let c = Pass.counter t in
  let spans name = List.concat_map (fun x -> Spans.durations x.p.spans name) ts in
  let span_total name = List.fold_left ( +. ) 0.0 (spans name) /. f (List.length ts) in
  let span_pct name q =
    let h = Hist.create () in
    List.iter (fun s -> Hist.add h (int_of_float (s *. 1e9))) (spans name);
    f (Hist.percentile h q) /. 1e9
  in
  let attempted, failed = outcome r in
  [
    ("boot.systems", f t.systems);
    ("boot.dram_mib", f t.dram_mib);
    ("boot.start_s", median (List.map (fun x -> x.p.boot_start_s) ts));
    ("boot.bringup_s", median (List.map (fun x -> x.p.setup_s) ts));
    ("gc.minor_words", median (List.map (fun x -> x.gc.minor_words) us));
    ("gc.major_words", median (List.map (fun x -> x.gc.major_words) us));
    ("gc.major_collections", median (List.map (fun x -> f x.gc.major_collections) us));
    ("gc.top_heap_mib", median (List.map (fun x -> x.top_heap_mib) us));
    ("sim.events", c "sim.events");
    ( "sim.host_ns_per_event",
      median (List.map (fun x -> ratio (host_s x *. 1e9) (f x.p.events)) us) );
    ("sim.samples", f (Hist.count t.latency));
    ( "fs.host_ms_per_mib",
      ratio (span_total "trace.replay" *. 1e3) (c "trace.bytes" /. 1048576.0) );
    ("noc.packets", c "noc.packets");
    ("noc.bytes", c "noc.bytes");
    ("kernel.leaked_vpes", c "kernel.leaked_vpes");
    ("kernel.leaked_eps", c "kernel.leaked_eps");
    ("m3fs.round_trips", c "m3fs.round_trips");
    ("m3fs.fsck_errors", c "m3fs.fsck_errors");
    ("trace.replays", c "trace.replays");
    ("trace.replay_p50_cycles", Pass.percentile t "trace.replay_cycles" 50.0);
    ("trace.replay_host_ms_p50", span_pct "trace.replay" 50.0 *. 1e3);
    ("serve.admitted", c "serve.admitted");
    ("serve.rejected", c "serve.rejected");
    ("serve.batches", c "serve.batches");
    ("serve.batch_mean", ratio (c "serve.batched") (c "serve.batches"));
    ("serve.queue_depth_max", c "serve.queue_depth_max");
    ("serve.retried", c "serve.retried");
    ("serve.deduped", c "serve.deduped");
    ("serve.service_p50_cycles", c "serve.service_p50_cycles");
    ("serve.service_p99_cycles", c "serve.service_p99_cycles");
    ("serve.dispatch_p99_cycles", c "serve.dispatch_p99_cycles");
    ("serve.gen_lag_p99_cycles", Pass.percentile t "serve.gen_lag_cycles" 99.0);
    ("serve.run_open_host_s", span_total "serve.run_open");
    ("serve.slo_rate_rpmc", c "serve.slo_rate_rpmc");
    ("kv.gets", c "kv.gets");
    ("kv.puts", c "kv.puts");
    ("kv.dup_skips", c "kv.dup_skips");
    ("kv.double_applied", c "kv.double_applied");
    ("kv.exec_p50_cycles", Pass.percentile t "kv.exec_cycles" 50.0);
    ("kv.exec_p99_cycles", Pass.percentile t "kv.exec_cycles" 99.0);
    ("kv.exec_host_us_p99", span_pct "kv.exec" 99.0 *. 1e6);
    ("acct.app_cycles", c "acct.app_cycles");
    ("acct.os_cycles", c "acct.os_cycles");
    ("acct.xfer_cycles", c "acct.xfer_cycles");
    ( "obs.trace_overhead_ratio",
      ratio (median (List.map (fun x -> x.wall_s) ts)) (median (List.map (fun x -> x.wall_s) us)) );
    ("error_rate", ratio (f failed) (f attempted));
  ]
  @ Tally.metrics t.tally

(* The metrics of [r] in declaration order.
   @raise Invalid_argument unless the run measured exactly the declared
   metrics. *)
let metrics r ~trace =
  let declared, values =
    if trace then (Spec.per_layer, per_layer r) else (Spec.end_to_end, end_to_end r)
  in
  let names ms = List.sort compare ms in
  let want = names (List.map (fun (m : Spec.metric) -> m.name) declared) in
  if names (List.map fst values) <> want then
    invalid_arg "Run.metrics: measured metrics differ from the declared ones";
  List.map
    (fun (m : Spec.metric) ->
      let v = List.assoc m.name values in
      (m, if Float.is_finite v then v else 0.0))
    declared

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json r ~trace =
  let attempted, failed = outcome r in
  let body =
    String.concat ", "
      (List.map
         (fun ((m : Spec.metric), v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (json_number v) m.unit_)
         (metrics r ~trace))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed body

(* Human-readable report, printed before the result line. *)
let report ppf r ~trace =
  let w = r.workload in
  let p = (List.hd r.untraced).p in
  let attempted, failed = outcome r in
  Format.fprintf ppf "workload %s  seed %d  passes %d untraced, %d traced@." w.name
    r.seed (List.length r.untraced) (List.length r.traced);
  Format.fprintf ppf "  why: %s@." w.why;
  Format.fprintf ppf "  loads: %s; bypasses: %s@." (String.concat ", " w.loads)
    (String.concat ", " w.bypasses);
  List.iter
    (fun ((m : Spec.metric), v) -> Format.fprintf ppf "  %-28s %16s %s@." m.name (json_number v) m.unit_)
    (metrics r ~trace);
  Format.fprintf ppf "  %-28s %16d requests (latency samples)@." "sim_samples"
    (Hist.count p.latency);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-28s %16s@." name (json_number v))
    (List.sort compare
       (Hashtbl.fold
          (fun name v acc ->
            if String.starts_with ~prefix:"serve.phase" name then (name, v) :: acc else acc)
          p.counters []));
  if Hashtbl.mem p.counters "serve.slo_rate_rpmc" then
    Format.fprintf ppf "  %-28s %16s 1/Mcycle@." "sim_slo_rate_rpmc"
      (json_number (Pass.counter p "serve.slo_rate_rpmc"));
  Format.fprintf ppf "  %-28s %16d of %d attempted@." "failed" failed attempted;
  Format.fprintf ppf "  %-28s %s@." "pass wall_s / setup_s"
    (String.concat " "
       (List.map (fun x -> Printf.sprintf "%.3f/%.3f" x.wall_s x.p.setup_s) (all r)));
  Format.fprintf ppf "  %-28s %s@." "digest" (List.hd r.untraced).digest;
  List.iter (fun msg -> Format.fprintf ppf "  failure: %s@." msg) (failures r);
  if trace then begin
    Format.fprintf ppf "  spans of the first traced pass (host ms total / self, Mcycles, Mwords):@.";
    List.iter
      (fun (name, (n, host, self, cycles, words)) ->
        Format.fprintf ppf "    %-22s %7d %10.1f %10.1f %10.2f %10.2f@." name n (host *. 1e3)
          (self *. 1e3)
          (float_of_int cycles /. 1e6)
          (words /. 1e6))
      (Spans.summary (List.hd r.traced).p.spans)
  end

(* Writes the first traced pass's spans under [dir]. *)
let write_spans r ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.jsonl" r.workload.name r.seed) in
  Spans.write (List.hd r.traced).p.spans path;
  path
