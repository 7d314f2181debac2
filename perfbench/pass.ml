(* Everything one pass of a workload measures. The workloads fill it;
   [Run] turns passes into metrics.

   Simulated results go through [sim], which also feeds the digest: a
   hash over every simulated metric, per-request latency and layer
   counter, in the deterministic order the simulation produced them.
   Host measurements never enter the digest, and neither do the traced
   run's event counts, so traced and untraced passes must hash alike. *)

type t = {
  traced : bool;
  tally : Tally.t;  (** event counts; only a traced pass attaches it *)
  spans : Spans.t;  (** host spans; only a traced pass records them *)
  force_fail : string option;
      (** a check of this name is reported failed (tests of the gate) *)
  digest : Buffer.t;
  latency : Hist.t;  (** per request, or per replay *)
  samples : (string, Hist.t) Hashtbl.t;  (** simulated per-layer distributions *)
  counters : (string, float) Hashtbl.t;  (** simulated layer counters *)
  mutable systems : int;
  mutable dram_mib : int;
  mutable setup_s : float;
  mutable boot_start_s : float;
  mutable events : int;
  mutable sim_cycles : int;
  mutable completed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create ?force_fail ~traced () =
  {
    traced;
    tally = Tally.create ();
    spans = Spans.create ~on:traced;
    force_fail;
    digest = Buffer.create 4096;
    latency = Hist.create ();
    samples = Hashtbl.create 8;
    counters = Hashtbl.create 32;
    systems = 0;
    dram_mib = 0;
    setup_s = 0.0;
    boot_start_s = 0.0;
    events = 0;
    sim_cycles = 0;
    completed = 0;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let feed t key v = Printf.bprintf t.digest "%s=%d\n" key v

let counter t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counters name)

(* Adds [v] to simulated layer counter [name] and hashes it. *)
let sim t name v =
  feed t name v;
  Hashtbl.replace t.counters name (counter t name +. float_of_int v)

(* Sets simulated result [name] (a ratio, rate or percentile). *)
let value t name v =
  Printf.bprintf t.digest "%s=%h\n" name v;
  Hashtbl.replace t.counters name v

(* One completed request (or replay) of simulated latency [cycles]. *)
let latency t cycles =
  feed t "lat" cycles;
  Hist.add t.latency cycles

(* One observation of the simulated distribution [name]. *)
let sample t name cycles =
  feed t name cycles;
  let h =
    match Hashtbl.find_opt t.samples name with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      Hashtbl.replace t.samples name h;
      h
  in
  Hist.add h cycles

let percentile t name p =
  match Hashtbl.find_opt t.samples name with
  | Some h -> float_of_int (Hist.percentile h p)
  | None -> 0.0

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 8 then t.failures <- msg :: t.failures

(* [ops t ~name ~attempted ~failed] counts operations of the workload. *)
let ops t ~name ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed - 1;
    fail t (Printf.sprintf "%s: %d of %d failed" name failed attempted)
  end

(* One correctness check; a violation counts as a failed operation. *)
let check t name ok =
  t.attempted <- t.attempted + 1;
  let ok = ok && t.force_fail <> Some name in
  feed t ("check." ^ name) (Bool.to_int ok);
  if not ok then fail t ("check failed: " ^ name)

(* Runs one unit of work; an exception counts as one failed operation. *)
let guard t name f =
  match f () with
  | () -> ()
  | exception e ->
    t.attempted <- t.attempted + 1;
    fail t (Printf.sprintf "%s raised %s" name (Printexc.to_string e))

let span t ~name ~owner ~clock f = Spans.record t.spans ~name ~owner ~clock f
let digest t = Digest.to_hex (Digest.string (Buffer.contents t.digest))
