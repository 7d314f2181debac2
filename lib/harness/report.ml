type verdict = {
  claim : string;
  measured : string;
  pass : bool;
}

let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b)

let v claim measured pass = { claim; measured; pass }

let fig3_verdicts (t : Fig3.t) =
  let m3_sys = t.Fig3.syscall.Fig3.m3.Runner.m_cycles in
  let ordering name (b : Fig3.bars) =
    v
      (Printf.sprintf "%s: M3 < Lx-$ < Lx" name)
      (Printf.sprintf "%s < %s < %s"
         (Runner.fmt_k b.Fig3.m3.Runner.m_cycles)
         (Runner.fmt_k b.Fig3.lx_ideal.Runner.m_cycles)
         (Runner.fmt_k b.Fig3.lx.Runner.m_cycles))
      (b.Fig3.m3.Runner.m_cycles < b.Fig3.lx_ideal.Runner.m_cycles
      && b.Fig3.lx_ideal.Runner.m_cycles < b.Fig3.lx.Runner.m_cycles)
  in
  [
    v "null syscall ≈ 200 cycles on M3, 410 on Linux"
      (Printf.sprintf "%d vs %d" m3_sys t.Fig3.syscall.Fig3.lx.Runner.m_cycles)
      (m3_sys >= 170 && m3_sys <= 240
      && t.Fig3.syscall.Fig3.lx.Runner.m_cycles = 410);
    ordering "read" t.Fig3.read;
    ordering "write" t.Fig3.write;
    ordering "pipe" t.Fig3.pipe;
  ]

let fig4_verdicts points =
  let find bpe = List.find (fun p -> p.Fig4.blocks_per_extent = bpe) points in
  let r16 = (find 16).Fig4.read.Runner.m_cycles in
  let r256 = (find 256).Fig4.read.Runner.m_cycles in
  let r2048 = (find 2048).Fig4.read.Runner.m_cycles in
  [
    v "fragmentation: steep until 256 blocks/extent, then flat"
      (Printf.sprintf "read %s @16 -> %s @256 -> %s @2048" (Runner.fmt_k r16)
         (Runner.fmt_k r256) (Runner.fmt_k r2048))
      (r16 > r256 && r256 > r2048 && r16 - r256 > 4 * (r256 - r2048));
  ]

let fig5_verdicts rows =
  let row name = List.find (fun r -> r.Fig5.name = name) rows in
  let ratio name =
    let r = row name in
    pct r.Fig5.m3.Runner.m_cycles r.Fig5.lx.Runner.m_cycles
  in
  [
    v "cat+tr ≈ 2x faster on M3"
      (Printf.sprintf "%.0f%% of Linux" (ratio "cat+tr"))
      (ratio "cat+tr" > 40.0 && ratio "cat+tr" < 70.0);
    v "tar ≈ 20% / untar ≈ 16% of Linux time"
      (Printf.sprintf "%.0f%% / %.0f%%" (ratio "tar") (ratio "untar"))
      (ratio "tar" < 35.0 && ratio "untar" < 35.0);
    v "find slightly slower on M3"
      (Printf.sprintf "%.0f%% of Linux" (ratio "find"))
      (ratio "find" > 100.0 && ratio "find" < 170.0);
    v "sqlite about equal (compute-bound)"
      (Printf.sprintf "%.0f%% of Linux" (ratio "sqlite"))
      (ratio "sqlite" > 85.0 && ratio "sqlite" <= 102.0);
  ]

let fig6_verdicts curves =
  let norm bench n =
    let c = List.find (fun c -> c.Fig6.bench = bench) curves in
    match List.find_opt (fun p -> p.Fig6.instances = n) c.Fig6.points with
    | Some p -> Some p.Fig6.normalized
    | None -> None
  in
  match (norm "find" 16, norm "sqlite" 16, norm "cat+tr" 16) with
  | Some find16, Some sqlite16, Some cat16 ->
    [
      v "at 16 instances: find degrades most, sqlite and cat+tr stay low"
        (Printf.sprintf "find %.2f, cat+tr %.2f, sqlite %.2f" find16 cat16
           sqlite16)
        (find16 > cat16 && find16 > sqlite16 && sqlite16 < 1.2 && cat16 < 1.6);
    ]
  | _ -> []

let fig7_verdicts (t : Fig7.t) =
  (* The App category also contains the parent's sample generation;
     compare the FFT work itself via the cost model. *)
  let points = M3_hw.Fft.points_of_bytes Fig7.data_bytes in
  let fft_ratio =
    float_of_int (M3_hw.Cost_model.fft_cycles ~accel:false ~points)
    /. float_of_int (max 1 (M3_hw.Cost_model.fft_cycles ~accel:true ~points))
  in
  [
    v "FFT accelerator ≈ 30x faster than software FFT"
      (Printf.sprintf "%.1fx" fft_ratio)
      (fft_ratio > 25.0 && fft_ratio < 35.0);
    v "M3 chain beats Linux; accelerator far ahead"
      (Printf.sprintf "Lx %s, M3 %s, M3+acc %s"
         (Runner.fmt_k t.Fig7.linux.Runner.m_cycles)
         (Runner.fmt_k t.Fig7.m3_software.Runner.m_cycles)
         (Runner.fmt_k t.Fig7.m3_accel.Runner.m_cycles))
      (t.Fig7.m3_software.Runner.m_cycles < t.Fig7.linux.Runner.m_cycles
      && t.Fig7.m3_accel.Runner.m_cycles * 5 < t.Fig7.m3_software.Runner.m_cycles);
  ]

let t1_verdicts (t : Tables.t1) =
  [
    v "syscall splits into ~30 transfer + ~170 software"
      (Printf.sprintf "%d = %d + %d" t.Tables.m3_total t.Tables.m3_xfer
         t.Tables.m3_other)
      (t.Tables.m3_xfer >= 10 && t.Tables.m3_xfer <= 45
      && t.Tables.m3_other >= 140 && t.Tables.m3_other <= 210);
  ]

let t2_verdicts rows =
  let get name = List.find (fun r -> r.Tables.arch = name) rows in
  let near target value = abs (value - target) < target / 5 in
  let x = get "xtensa" and a = get "arm-a15" in
  [
    v "Xtensa/ARM overheads ≈ 2.2/2.4 M (create), 3.2 M (copy)"
      (Printf.sprintf "create %s/%s, copy %s/%s"
         (Runner.fmt_k x.Tables.create_overhead)
         (Runner.fmt_k a.Tables.create_overhead)
         (Runner.fmt_k x.Tables.copy_overhead)
         (Runner.fmt_k a.Tables.copy_overhead))
      (near 2_200_000 x.Tables.create_overhead
      && near 2_400_000 a.Tables.create_overhead
      && near 3_200_000 x.Tables.copy_overhead
      && near 3_200_000 a.Tables.copy_overhead);
  ]

let validate ?fig3 ?fig4 ?fig5 ?fig6 ?fig7 ?t1 ?t2 () =
  let opt f = function Some x -> f x | None -> [] in
  opt fig3_verdicts fig3 @ opt fig4_verdicts fig4 @ opt fig5_verdicts fig5
  @ opt fig6_verdicts fig6 @ opt fig7_verdicts fig7 @ opt t1_verdicts t1
  @ opt t2_verdicts t2

let all_pass = List.for_all (fun r -> r.pass)

let print ppf verdicts =
  Format.fprintf ppf "Reproduction summary (%d/%d claims hold)@."
    (List.length (List.filter (fun r -> r.pass) verdicts))
    (List.length verdicts);
  List.iter
    (fun r ->
      Format.fprintf ppf "  [%s] %-55s %s@."
        (if r.pass then "PASS" else "FAIL")
        r.claim r.measured)
    verdicts

(* --- observability summary ------------------------------------------- *)

module Metrics = M3_obs.Metrics
module Stats = M3_sim.Stats

let pcts st =
  Printf.sprintf "p50 %.0f  p95 %.0f  p99 %.0f" (Stats.percentile st 50.0)
    (Stats.percentile st 95.0) (Stats.percentile st 99.0)

(* Caps long per-key listings at the busiest entries to keep the table
   readable on wide fabrics. *)
let top n xs ~weight =
  let sorted = List.stable_sort (fun a b -> compare (weight b) (weight a)) xs in
  (List.filteri (fun i _ -> i < n) sorted, max 0 (List.length xs - n))

(* Runs of elements with equal [key], in first-appearance order. *)
let rec group key = function
  | [] -> []
  | x :: _ as xs ->
    let k = key x in
    let mine, rest = List.partition (fun y -> key y = k) xs in
    (k, mine) :: group key rest

let by_key (a, _) (b, _) = compare a b

(* A dotted name's family is everything before its last segment
   ("serve.admit" -> "serve"), its member that segment. *)
let split name =
  match String.rindex_opt name '.' with
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> (name, name)

(* Merges rows into one line: the event count, each member's count
   when [members], and the totals and distributions of same-named
   fields combined across rows. *)
let merge ~members (rows : Metrics.row list) =
  let combine f acc (k, x) =
    if List.mem_assoc k acc then
      List.map (fun (k', y) -> if k' = k then (k', f y x) else (k', y)) acc
    else acc @ [ (k, x) ]
  in
  let fold f get =
    List.fold_left (fun acc r -> List.fold_left f acc (get r)) [] rows
  in
  ( List.fold_left (fun n (r : Metrics.row) -> n + r.count) 0 rows,
    (if members then
       List.map (fun (r : Metrics.row) -> (snd (split r.name), r.count)) rows
     else []),
    fold (combine ( + )) (fun r -> r.sums),
    fold (combine Stats.merge) (fun r -> r.hists) )

let print_obs ppf m =
  let rows = Metrics.rows m in
  let kinds, labelled =
    List.partition (fun (r : Metrics.row) -> r.label = "") rows
  in
  let families = group (fun (r : Metrics.row) -> fst (split r.name)) labelled in
  let width =
    List.fold_left
      (fun w (r : Metrics.row) ->
        max w (max (String.length r.name) (2 + String.length r.label)))
      8 rows
  in
  let line key (count, members, sums, hists) =
    Format.fprintf ppf "  %-*s %8d" width key count;
    List.iter (fun (k, n) -> Format.fprintf ppf "  %s %d" k n) members;
    List.iter
      (fun (k, x) ->
        Format.fprintf ppf "  %s %d" k x;
        Option.iter
          (fun st -> Format.fprintf ppf " (%s)" (pcts st))
          (List.assoc_opt k hists))
      sums;
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf "Observability summary (%d events)@."
    (List.fold_left (fun n (r : Metrics.row) -> n + r.count) 0 kinds);
  Format.fprintf ppf "  %-*s %8s  totals (distribution)@." width "kind" "count";
  List.iter (fun (r : Metrics.row) -> line r.name (merge ~members:false [ r ]))
    kinds;
  Format.fprintf ppf "  %-*s %8s  per kind, totals (distribution)@." width
    "by label" "count";
  List.iter
    (fun (family, (rows : Metrics.row list)) ->
      let names =
        List.sort_uniq compare (List.map (fun (r : Metrics.row) -> r.name) rows)
      in
      let members = List.length names > 1 in
      let totals =
        List.filter (fun (r : Metrics.row) -> List.mem r.name names) kinds
      in
      line family (merge ~members totals);
      let lines =
        List.sort by_key
          (List.map
             (fun (label, rows) -> (label, merge ~members rows))
             (group (fun (r : Metrics.row) -> r.label) rows))
      in
      (* Locations (endpoints, links) grow with the machine: show the
         busiest, by their first total (cycles or bytes), else count. *)
      let shown, elided =
        if List.exists (fun (r : Metrics.row) -> r.place) rows then
          top 8 lines ~weight:(fun (_, (n, _, sums, _)) ->
              match sums with (_, x) :: _ -> x | [] -> n)
        else (lines, 0)
      in
      List.iter (fun (label, l) -> line ("  " ^ label) l) shown;
      if elided > 0 then Format.fprintf ppf "    ... %d more@." elided)
    (List.sort by_key families)
