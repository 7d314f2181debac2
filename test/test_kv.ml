(* Regression tests for the KV service tier PR:

   - both wire forms round-trip: the packed u64 ops (field-width
     boundaries included) and the binary protocol (requests, values,
     scan pages, errors), and the new KV errnos survive their integer
     encoding,
   - [Kv_load.zipf_keys] is a pure function of its Rng (same seed,
     same draws) and actually skews (key 0 hottest), and
     [assign_keys] never perturbs a schedule's shape — arrival times,
     clients and operation kinds are byte-for-byte those of the
     unkeyed schedule,
   - key → bucket → shard placement is a pure function of the store
     config: two independent store instances agree on every path, so
     any worker (or test) can compute placement without coordination,
   - the store's durable header makes puts exactly-once under
     at-least-once dispatch: a replayed put is a dup-skip, never a
     second apply; scan paginates exactly and a stale cursor answers
     [E_kv_cursor]; an oversized value answers [E_kv_too_large],
   - an application that merely constructs KV values (stores,
     schedules, encodings) but starts nothing pays zero simulated
     cycles: its event log is byte-identical to an oblivious run,
   - one full capacity cell of Fig. S2 (boot, shard mounts, pool,
     mount caches) is deterministic: same seed, same record. *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Bootstrap = M3.Bootstrap
module Errno = M3.Errno
module Syscalls = M3.Syscalls
module Vfs = M3.Vfs
module Obs = M3_obs.Obs
module Metrics = M3_obs.Metrics
module Load = M3_serve.Load
module Wire = M3_serve.Wire
module Kv_wire = M3_kv.Kv_wire
module Kv_load = M3_kv.Kv_load
module Store = M3_kv.Kv_store
module Figs2 = M3_harness.Figs2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let ok = Errno.ok_exn

(* --- packed wire form ---------------------------------------------------- *)

let test_pack_round_trip () =
  List.iter
    (fun op ->
      let op' = Kv_wire.unpack (Kv_wire.pack op) in
      check_bool (Kv_wire.op_name op ^ " round-trips") true (op = op'))
    [
      Kv_wire.Get { key = 0 };
      Kv_wire.Get { key = 0xFFFFFF };
      Kv_wire.Put { key = 1; len = 992 };
      Kv_wire.Put { key = 0xFFFFFF; len = 0xFFFFFF };
      Kv_wire.Delete { key = 42 };
      Kv_wire.Scan { bucket = 0; cursor = 0; limit = 0 };
      Kv_wire.Scan { bucket = 3; cursor = 0xFFFF; limit = 0xFF };
    ]

let test_pack_validates () =
  List.iter
    (fun (name, op) ->
      match Kv_wire.pack op with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": oversized field was packed"))
    [
      ("oversized key", Kv_wire.Get { key = 0x1_000_000 });
      ("negative key", Kv_wire.Delete { key = -1 });
      ("oversized cursor", Kv_wire.Scan { bucket = 0; cursor = 0x10000; limit = 1 });
      ("oversized limit", Kv_wire.Scan { bucket = 0; cursor = 0; limit = 256 });
    ]

(* --- binary wire form ---------------------------------------------------- *)

let test_req_round_trip () =
  List.iter
    (fun rq ->
      let rq' = Kv_wire.decode_req (Kv_wire.encode_req rq) in
      check_bool (Kv_wire.req_name rq ^ " round-trips") true (rq = rq'))
    [
      Kv_wire.R_get { key = "b2/k001" };
      Kv_wire.R_put { key = "k"; seq = 12345; value = String.make 992 'v' };
      Kv_wire.R_put { key = ""; seq = 0; value = "" };
      Kv_wire.R_delete { key = "gone" };
      Kv_wire.R_scan { bucket = 2; cursor = 16; limit = 8 };
      Kv_wire.R_stop;
    ]

let test_resp_round_trip () =
  List.iter
    (fun rp ->
      let rp' = Kv_wire.decode_resp (Kv_wire.encode_resp rp) in
      check_bool "response round-trips" true (rp = rp'))
    [
      Kv_wire.P_value { seq = 7; value = "hello" };
      Kv_wire.P_value { seq = 0; value = "" };
      Kv_wire.P_done;
      Kv_wire.P_page { keys = [ "k0"; "k1"; "k2" ]; next = 3; more = true };
      Kv_wire.P_page { keys = []; next = 0; more = false };
      Kv_wire.P_err Errno.E_not_found;
      Kv_wire.P_err Errno.E_kv_too_large;
      Kv_wire.P_err Errno.E_kv_cursor;
    ]

let test_kv_errnos_encode () =
  List.iter
    (fun e ->
      check_bool (Errno.to_string e ^ " survives its integer encoding") true
        (Errno.of_int (Errno.to_int e) = e))
    [ Errno.E_kv_too_large; Errno.E_kv_cursor ]

(* --- key distribution ---------------------------------------------------- *)

let draws ~seed ~n ~sample count =
  let rng = Rng.create ~seed in
  let s = sample ~n in
  Array.init count (fun _ -> s rng)

let test_zipf_keys_deterministic_and_skewed () =
  let sample ~n = Kv_load.zipf_keys ~n ~theta:0.9 in
  let a = draws ~seed:11 ~n:64 ~sample 2000 in
  let b = draws ~seed:11 ~n:64 ~sample 2000 in
  check_bool "same seed, same key stream" true (a = b);
  let freq = Array.make 64 0 in
  Array.iter (fun k -> freq.(k) <- freq.(k) + 1) a;
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > freq.(!hottest) then hottest := i) freq;
  check_int "key 0 is the hottest" 0 !hottest;
  check_bool "and carries real mass" true
    (float_of_int freq.(0) > 0.05 *. 2000.0)

let test_uniform_keys_cover () =
  let ks = draws ~seed:12 ~n:8 ~sample:(fun ~n -> Kv_load.uniform_keys ~n) 800 in
  Array.iter (fun k -> check_bool "key in range" true (k >= 0 && k < 8)) ks;
  let freq = Array.make 8 0 in
  Array.iter (fun k -> freq.(k) <- freq.(k) + 1) ks;
  Array.iter (fun c -> check_bool "every key drawn" true (c > 0)) freq

(* [assign_keys] must only rewrite the keys of keyed KV ops: arrival
   times, client ids, sequence numbers and the operation kinds
   themselves are those of the unkeyed schedule, byte for byte. *)
let test_assign_keys_does_not_perturb () =
  let schedule =
    Load.poisson ~rng:(Rng.create ~seed:21)
      ~clients:(Load.uniform_clients ~n:3) ~mean_gap:1_000.0 ~count:80
      ~mix:(Kv_load.op_mix ~reads:3 ~writes:1) ()
  in
  let keyed =
    Kv_load.assign_keys ~rng:(Rng.create ~seed:22)
      ~sample:(Kv_load.zipf_keys ~n:32 ~theta:0.9)
      schedule
  in
  check_int "same length" (Array.length schedule) (Array.length keyed);
  Array.iteri
    (fun i (a : Load.arrival) ->
      let b = keyed.(i) in
      check_int "same arrival time" a.Load.at b.Load.at;
      check_int "same client" a.Load.client b.Load.client;
      check_int "same seq" a.Load.req.Wire.seq b.Load.req.Wire.seq;
      match (a.Load.req.Wire.rk, b.Load.req.Wire.rk) with
      | Wire.Kv pa, Wire.Kv pb -> (
        match (Kv_wire.unpack pa, Kv_wire.unpack pb) with
        | Kv_wire.Get _, Kv_wire.Get { key } | Kv_wire.Delete _, Kv_wire.Delete { key }
          ->
          check_bool "key in range" true (key >= 0 && key < 32)
        | Kv_wire.Put { len = la; _ }, Kv_wire.Put { key; len = lb } ->
          check_int "same value length" la lb;
          check_bool "key in range" true (key >= 0 && key < 32)
        | Kv_wire.Scan _, Kv_wire.Scan _ ->
          check_int "scans pass through untouched" pa pb
        | _ -> Alcotest.fail "operation kind changed")
      | ra, rb ->
        check_bool "non-KV requests pass through untouched" true (ra = rb))
    schedule;
  let again =
    Kv_load.assign_keys ~rng:(Rng.create ~seed:22)
      ~sample:(Kv_load.zipf_keys ~n:32 ~theta:0.9)
      schedule
  in
  check_bool "assignment is deterministic" true (keyed = again)

(* --- placement ----------------------------------------------------------- *)

(* Key placement must be a pure function of the config: independent
   store instances agree on every key's bucket and path, buckets stay
   in range, and the skewed keyspace still spreads over several
   buckets (otherwise sharding could never relieve anything). *)
let test_placement_is_stable () =
  let config = { Store.default_config with Store.keys = 64; buckets = 4 } in
  let a = Store.create ~config ~name:"a" () in
  let b = Store.create ~config ~name:"b" () in
  let used = Array.make 4 false in
  for i = 0 to 63 do
    let key = Store.key_of_index a i in
    check_string "same key naming" key (Store.key_of_index b i);
    let bucket = Store.bucket_of_key a key in
    check_int "same bucket" bucket (Store.bucket_of_key b key);
    check_bool "bucket in range" true (bucket >= 0 && bucket < 4);
    used.(bucket) <- true;
    check_string "same path" (Store.path_of_key a key) (Store.path_of_key b key);
    check_bool "path lives under its bucket directory" true
      (String.length (Store.path_of_key a key) > 3
      && String.sub (Store.path_of_key a key) 0 3
         = Printf.sprintf "/b%d" bucket)
  done;
  Array.iter (fun u -> check_bool "every bucket used" true u) used

(* --- store semantics (simulated) ----------------------------------------- *)

(* Boots kernel + one m3fs (empty seed), mounts it, prepares [store]
   and runs [main] in the app VPE. *)
let run_store_traced ~sinks ~config main =
  let engine = Engine.create () in
  let obs =
    match sinks with
    | [] -> None
    | sinks ->
      let obs = Obs.of_engine engine in
      List.iter (Obs.attach obs) sinks;
      Some obs
  in
  let fs ~dram = { (M3.M3fs.default_config ~dram) with M3.M3fs.seed = [] } in
  let platform_config =
    { M3_hw.Platform.default_config with ep_count = 16 }
  in
  let store = Store.create ~config ~name:"kv" () in
  let sys = Bootstrap.start ~platform_config ~fs ?obs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        ok (Vfs.mount_sharded env ~path:"/" ~services:sys.Bootstrap.fs_services);
        ok (Store.prepare env store);
        main env store;
        0)
  in
  ignore (Engine.run engine);
  M3.M3fs.forget ~engine;
  Bootstrap.expect_exit sys exit

let run_store ~config main = run_store_traced ~sinks:[] ~config main

let small_config =
  { Store.default_config with Store.keys = 12; buckets = 3; value_len = 64 }

(* A put applies once; the same put replayed (crash-retry,
   front-requeue) reads the durable header and skips — the host-side
   witness sees exactly one apply per sequence number. *)
let test_put_is_exactly_once () =
  run_store ~config:small_config (fun env store ->
      let key = Store.key_of_index store 3 in
      let value = Store.value_of store ~key ~seq:7 in
      let put () =
        Store.exec env store ~seq:7 (Kv_wire.R_put { key; seq = 7; value })
      in
      (match put () with
      | Kv_wire.P_done -> ()
      | _ -> Alcotest.fail "first put did not apply");
      let skips0 = Store.dup_skips store in
      (match put () with
      | Kv_wire.P_done -> ()
      | _ -> Alcotest.fail "replayed put did not answer done");
      check_int "replay is a dup-skip" (skips0 + 1) (Store.dup_skips store);
      check_bool "seq 7 applied exactly once" true
        (Store.applied_once store ~seq:7);
      check_int "nothing double-applied" 0 (Store.double_applied store);
      match Store.exec env store ~seq:0 (Kv_wire.R_get { key }) with
      | Kv_wire.P_value { seq; value = v } ->
        check_int "get sees the applied seq" 7 seq;
        check_string "and the applied value" value v
      | _ -> Alcotest.fail "get after put failed")

(* The dedup is visible on the obs bus: the replayed put counts as a
   dup on the kv.put row, and the summary table prints that count. *)
let test_dup_is_observable () =
  let metrics = Metrics.create () in
  let skips = ref 0 in
  run_store_traced ~sinks:[ Metrics.sink metrics ] ~config:small_config
    (fun env store ->
      let key = Store.key_of_index store 3 in
      let value = Store.value_of store ~key ~seq:7 in
      for _ = 1 to 2 do
        ignore
          (Store.exec env store ~seq:7 (Kv_wire.R_put { key; seq = 7; value }))
      done;
      skips := Store.dup_skips store);
  check_bool "the replay was a dup-skip" true (!skips >= 1);
  check_int "kv.put dups are the store's dup-skips" !skips
    (Metrics.sum metrics "kv.put" "kv" "dup");
  let summary = Format.asprintf "%a" M3_harness.Report.print_obs metrics in
  let dup = Printf.sprintf "  dup %d" !skips in
  check_bool "the summary prints the kv.put dups" true
    (List.exists
       (fun line ->
         String.starts_with ~prefix:"  kv.put " line
         && String.ends_with ~suffix:dup line)
       (String.split_on_char '\n' summary))

let test_put_too_large () =
  run_store ~config:small_config (fun env store ->
      let key = Store.key_of_index store 0 in
      let value = String.make (small_config.Store.value_max + 1) 'x' in
      match Store.exec env store ~seq:1 (Kv_wire.R_put { key; seq = 1; value }) with
      | Kv_wire.P_err Errno.E_kv_too_large -> ()
      | _ -> Alcotest.fail "oversized put was not refused")

(* Scan pages through a bucket exactly: every preloaded key of the
   bucket appears once, the last page says [more = false], and
   resuming past the end answers [E_kv_cursor]. *)
let test_scan_paginates () =
  run_store ~config:small_config (fun env store ->
      let expected = ref [] in
      for i = 0 to small_config.Store.keys - 1 do
        let key = Store.key_of_index store i in
        if Store.bucket_of_key store key = 0 then expected := key :: !expected
      done;
      let rec pages cursor acc rounds =
        if rounds > 32 then Alcotest.fail "scan never terminated";
        match
          Store.exec env store ~seq:0
            (Kv_wire.R_scan { bucket = 0; cursor; limit = 2 })
        with
        | Kv_wire.P_page { keys; next; more } ->
          check_bool "page within limit" true (List.length keys <= 2);
          let acc = acc @ keys in
          if more then pages next acc (rounds + 1) else (acc, next)
        | _ -> Alcotest.fail "scan failed"
      in
      let seen, last = pages 0 [] 0 in
      check_bool "every key of the bucket, exactly once" true
        (List.sort compare seen = List.sort compare !expected);
      match
        Store.exec env store ~seq:0
          (Kv_wire.R_scan { bucket = 0; cursor = last + 8; limit = 2 })
      with
      | Kv_wire.P_err Errno.E_kv_cursor -> ()
      | _ -> Alcotest.fail "stale cursor was not refused")

(* --- zero-cost guard ----------------------------------------------------- *)

(* Constructing KV values — a store object, a keyed schedule, wire
   encodings — is host-side only. A run that builds them but starts
   nothing must be byte-identical to one that never mentions kv. *)
let logged_run ~with_kv_values =
  let engine = Engine.create () in
  let mem = Obs.Memory.create () in
  let obs = Obs.of_engine engine in
  Obs.attach obs (Obs.Memory.sink mem);
  let sys = Bootstrap.start ~no_fs:true ~obs engine in
  let exit =
    Bootstrap.launch sys ~name:"app" (fun env ->
        if with_kv_values then begin
          let store = Store.create ~config:small_config ~name:"idle" () in
          let rng = Rng.create ~seed:31 in
          let schedule =
            Load.poisson ~rng ~mean_gap:500.0 ~count:40
              ~mix:(Kv_load.op_mix ~reads:9 ~writes:1) ()
          in
          let schedule =
            Kv_load.assign_keys ~rng
              ~sample:(Kv_load.zipf_keys ~n:12 ~theta:0.9)
              schedule
          in
          ignore (Store.path_of_key store (Store.key_of_index store 5));
          ignore (Kv_wire.encode_req (Kv_wire.R_get { key = "k" }));
          ignore (Load.offered_rate schedule)
        end;
        for _ = 1 to 20 do
          ok (Syscalls.noop env)
        done;
        0)
  in
  let final = Engine.run engine in
  Bootstrap.expect_exit sys exit;
  (Obs.Memory.to_string mem, final)

let test_kv_off_is_zero_cost () =
  let log_plain, cycles_plain = logged_run ~with_kv_values:false in
  let log_values, cycles_values = logged_run ~with_kv_values:true in
  check_bool "log not empty" true (String.length log_plain > 0);
  check_string "byte-identical event logs" log_plain log_values;
  check_int "identical final cycle" cycles_plain cycles_values

(* --- figS2 determinism --------------------------------------------------- *)

(* One CI-sized capacity cell, end to end (boot, two shard mounts,
   pool, worker mount caches): same seed, same record — every field
   including the cache counters. *)
let test_figs2_cell_is_deterministic () =
  let cell () =
    Figs2.capacity_cell ~keys:16 ~requests:40 ~seed:0xD1CE ~shards:2 ~reads:9
      ~writes:1
  in
  let a = cell () and b = cell () in
  check_bool "same seed, same capacity cell" true (a = b);
  check_int "no failed requests" 0 a.Figs2.c_failed;
  check_int "every request completed" 40 a.Figs2.c_completed

let suites =
  let tc = Alcotest.test_case in
  let tc' name f = tc name `Quick f in
  [
    ( "kv.wire",
      [
        tc' "packed ops round-trip" test_pack_round_trip;
        tc' "packed ops validate widths" test_pack_validates;
        tc' "binary requests round-trip" test_req_round_trip;
        tc' "binary responses round-trip" test_resp_round_trip;
        tc' "kv errnos encode" test_kv_errnos_encode;
      ] );
    ( "kv.load",
      [
        tc' "zipf keys deterministic and skewed"
          test_zipf_keys_deterministic_and_skewed;
        tc' "uniform keys cover" test_uniform_keys_cover;
        tc' "key assignment does not perturb" test_assign_keys_does_not_perturb;
      ] );
    ( "kv.store",
      [
        tc' "placement is stable" test_placement_is_stable;
        tc "put is exactly-once" `Slow test_put_is_exactly_once;
        tc "put dedup is observable" `Slow test_dup_is_observable;
        tc "oversized put refused" `Slow test_put_too_large;
        tc "scan paginates" `Slow test_scan_paginates;
        tc' "kv off, no cost" test_kv_off_is_zero_cost;
        tc "figS2 cell deterministic" `Slow test_figs2_cell_is_deterministic;
      ] );
  ]
