(* Tests for stores, permissions and the region allocator. *)

module Store = M3_mem.Store
module Perm = M3_mem.Perm
module Alloc = M3_mem.Alloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- perm --- *)

let test_perm_lattice () =
  check_bool "r subset rw" true (Perm.subset Perm.r ~of_:Perm.rw);
  check_bool "w subset rw" true (Perm.subset Perm.w ~of_:Perm.rw);
  check_bool "rw not subset r" false (Perm.subset Perm.rw ~of_:Perm.r);
  check_bool "none subset anything" true (Perm.subset Perm.none ~of_:Perm.none);
  check_bool "inter narrows" true
    (Perm.equal (Perm.inter Perm.rw Perm.r) Perm.r);
  check_bool "union widens" true
    (Perm.equal (Perm.union Perm.r Perm.w) Perm.rw);
  check_bool "x" true (Perm.can_exec Perm.rwx);
  check_bool "no x in rw" false (Perm.can_exec Perm.rw)

(* --- store --- *)

let test_store_scalar_roundtrip () =
  let s = Store.create ~name:"t" ~size:64 in
  Store.write_u8 s ~addr:0 0xAB;
  check_int "u8" 0xAB (Store.read_u8 s ~addr:0);
  Store.write_u32 s ~addr:4 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Store.read_u32 s ~addr:4);
  Store.write_i64 s ~addr:8 (-123456789L);
  Alcotest.(check int64) "i64" (-123456789L) (Store.read_i64 s ~addr:8)

let test_store_bytes_and_strings () =
  let s = Store.create ~name:"t" ~size:32 in
  Store.write_string s ~addr:3 "hello";
  Alcotest.(check string) "string" "hello" (Store.read_string s ~addr:3 ~len:5);
  let b = Store.read_bytes s ~addr:3 ~len:5 in
  Alcotest.(check string) "bytes" "hello" (Bytes.to_string b);
  Store.fill s ~addr:3 ~len:5 '!';
  Alcotest.(check string) "fill" "!!!!!" (Store.read_string s ~addr:3 ~len:5)

let test_store_blit_between_stores () =
  let a = Store.create ~name:"a" ~size:16 in
  let b = Store.create ~name:"b" ~size:16 in
  Store.write_string a ~addr:0 "0123456789abcdef";
  Store.blit ~src:a ~src_addr:4 ~dst:b ~dst_addr:8 ~len:4;
  Alcotest.(check string) "blit" "4567" (Store.read_string b ~addr:8 ~len:4)

let test_store_faults () =
  let s = Store.create ~name:"f" ~size:8 in
  let faults f = match f () with
    | exception Store.Fault _ -> true
    | _ -> false
  in
  check_bool "read past end" true (faults (fun () -> Store.read_u32 s ~addr:6));
  check_bool "negative addr" true (faults (fun () -> Store.read_u8 s ~addr:(-1)));
  check_bool "write past end" true
    (faults (fun () -> Store.write_i64 s ~addr:4 0L));
  check_bool "in-bounds ok" false (faults (fun () -> Store.read_u8 s ~addr:7))

(* Model-based test: random operation sequences run against a store and
   against a flat [Bytes] reference. The stores span several pages
   (a page is the 64 KiB SPM size) and end mid-page, and addresses
   cluster around page boundaries, so straddling scalars, multi-page
   copies, whole-page fills and out-of-bounds accesses all show up. *)

let page = 64 * 1024
let size_a = (3 * page) + 1234
let size_b = (2 * page) + 77

(* The [bool]s pick the store: [true] is a, [false] is b. *)
type op =
  | Read_u8 of bool * int
  | Write_u8 of bool * int * int
  | Read_u32 of bool * int
  | Write_u32 of bool * int * int
  | Read_i64 of bool * int
  | Write_i64 of bool * int * int64
  | Read_bytes of bool * int * int
  | Write_bytes of bool * int * int * int  (* addr, source pos, len *)
  | Blit of bool * bool * int * int * int  (* src, dst, src_addr, dst_addr, len *)
  | Fill of bool * int * int * char

let show_op =
  let s b = if b then "a" else "b" in
  function
  | Read_u8 (t, a) -> Printf.sprintf "read_u8 %s %d" (s t) a
  | Write_u8 (t, a, v) -> Printf.sprintf "write_u8 %s %d %d" (s t) a v
  | Read_u32 (t, a) -> Printf.sprintf "read_u32 %s %d" (s t) a
  | Write_u32 (t, a, v) -> Printf.sprintf "write_u32 %s %d %d" (s t) a v
  | Read_i64 (t, a) -> Printf.sprintf "read_i64 %s %d" (s t) a
  | Write_i64 (t, a, v) -> Printf.sprintf "write_i64 %s %d %Ld" (s t) a v
  | Read_bytes (t, a, l) -> Printf.sprintf "read_bytes %s %d %d" (s t) a l
  | Write_bytes (t, a, p, l) -> Printf.sprintf "write_bytes %s %d pos %d %d" (s t) a p l
  | Blit (x, y, sa, da, l) ->
    Printf.sprintf "blit %s %d -> %s %d len %d" (s x) sa (s y) da l
  | Fill (t, a, l, c) -> Printf.sprintf "fill %s %d %d %C" (s t) a l c

let gen_op =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (6, map2 (fun k d -> (k * page) + d) (int_range 0 4) (int_range (-12) 12));
        (1, map (fun d -> size_a + d) (int_range (-12) 12));
        (1, map (fun d -> size_b + d) (int_range (-12) 12));
        (2, int_range (-4) (size_a + 4));
      ]
  in
  let len =
    frequency
      [
        (6, int_range 0 24);
        (2, int_range 0 ((2 * page) + 100));
        (1, pure page);
        (1, int_range (-2) (-1));
      ]
  in
  let byte = map Char.chr (int_range 0 255) in
  frequency
    [
      (2, map2 (fun t a -> Read_u8 (t, a)) bool addr);
      (2, map3 (fun t a v -> Write_u8 (t, a, v)) bool addr (int_range 0 511));
      (2, map2 (fun t a -> Read_u32 (t, a)) bool addr);
      (2, map3 (fun t a v -> Write_u32 (t, a, v)) bool addr int);
      (2, map2 (fun t a -> Read_i64 (t, a)) bool addr);
      (2, map3 (fun t a v -> Write_i64 (t, a, v)) bool addr (map Int64.of_int int));
      (2, map3 (fun t a l -> Read_bytes (t, a, l)) bool addr len);
      ( 2,
        map3
          (fun t (a, p) l -> Write_bytes (t, a, p, l))
          bool (pair addr (int_range (-1) 8)) len );
      ( 4,
        map3
          (fun (x, y) (sa, da) l -> Blit (x, y, sa, da, l))
          (pair bool bool) (pair addr addr) len );
      ( 3,
        map3
          (fun t (a, l) c -> Fill (t, a, l, c))
          bool (pair addr len)
          (frequency [ (3, pure '\000'); (1, byte) ]) );
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* The reference: the same checks, messages and copies on flat bytes. *)
let ref_check name m ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Bytes.length m then
    raise
      (Store.Fault
         (Printf.sprintf "%s: access [%d, %d) outside [0, %d)" name addr
            (addr + len) (Bytes.length m)))

(* Sources for [Write_bytes]: a fixed pattern, long enough for any len. *)
let source = Bytes.init ((2 * page) + 200) (fun i -> Char.chr ((i * 7) land 0xff))

let run_store (a, b) op =
  let st t = if t then a else b in
  match op with
  | Read_u8 (t, addr) -> string_of_int (Store.read_u8 (st t) ~addr)
  | Write_u8 (t, addr, v) -> Store.write_u8 (st t) ~addr v; ""
  | Read_u32 (t, addr) -> string_of_int (Store.read_u32 (st t) ~addr)
  | Write_u32 (t, addr, v) -> Store.write_u32 (st t) ~addr v; ""
  | Read_i64 (t, addr) -> Int64.to_string (Store.read_i64 (st t) ~addr)
  | Write_i64 (t, addr, v) -> Store.write_i64 (st t) ~addr v; ""
  | Read_bytes (t, addr, len) -> Bytes.to_string (Store.read_bytes (st t) ~addr ~len)
  | Write_bytes (t, addr, pos, len) ->
    Store.write_bytes (st t) ~addr source ~pos ~len; ""
  | Blit (x, y, src_addr, dst_addr, len) ->
    Store.blit ~src:(st x) ~src_addr ~dst:(st y) ~dst_addr ~len; ""
  | Fill (t, addr, len, c) -> Store.fill (st t) ~addr ~len c; ""

let run_model (a, b) op =
  let st t = if t then ("a", a) else ("b", b) in
  match op with
  | Read_u8 (t, addr) ->
    let name, m = st t in
    ref_check name m ~addr ~len:1;
    string_of_int (Char.code (Bytes.get m addr))
  | Write_u8 (t, addr, v) ->
    let name, m = st t in
    ref_check name m ~addr ~len:1;
    Bytes.set m addr (Char.chr (v land 0xff)); ""
  | Read_u32 (t, addr) ->
    let name, m = st t in
    ref_check name m ~addr ~len:4;
    string_of_int (Int32.to_int (Bytes.get_int32_le m addr) land 0xffffffff)
  | Write_u32 (t, addr, v) ->
    let name, m = st t in
    ref_check name m ~addr ~len:4;
    Bytes.set_int32_le m addr (Int32.of_int v); ""
  | Read_i64 (t, addr) ->
    let name, m = st t in
    ref_check name m ~addr ~len:8;
    Int64.to_string (Bytes.get_int64_le m addr)
  | Write_i64 (t, addr, v) ->
    let name, m = st t in
    ref_check name m ~addr ~len:8;
    Bytes.set_int64_le m addr v; ""
  | Read_bytes (t, addr, len) ->
    let name, m = st t in
    ref_check name m ~addr ~len;
    Bytes.sub_string m addr len
  | Write_bytes (t, addr, pos, len) ->
    let name, m = st t in
    ref_check name m ~addr ~len;
    if pos < 0 || len < 0 || pos + len > Bytes.length source then
      raise (Store.Fault (name ^ ": bad source slice"));
    Bytes.blit source pos m addr len; ""
  | Blit (x, y, src_addr, dst_addr, len) ->
    let sname, sm = st x and dname, dm = st y in
    ref_check sname sm ~addr:src_addr ~len;
    ref_check dname dm ~addr:dst_addr ~len;
    Bytes.blit sm src_addr dm dst_addr len; ""
  | Fill (t, addr, len, c) ->
    let name, m = st t in
    ref_check name m ~addr ~len;
    Bytes.fill m addr len c; ""

let outcome f = match f () with r -> Ok r | exception Store.Fault msg -> Error msg

let contents s = Store.read_string s ~addr:0 ~len:(Store.size s)

let qcheck_store_model =
  QCheck.Test.make ~name:"store matches a flat-bytes model" ~count:300 arb_ops
    (fun ops ->
      let stores = (Store.create ~name:"a" ~size:size_a, Store.create ~name:"b" ~size:size_b) in
      let model = (Bytes.make size_a '\000', Bytes.make size_b '\000') in
      List.for_all
        (fun op ->
          let got = outcome (fun () -> run_store stores op) in
          let want = outcome (fun () -> run_model model op) in
          got = want
          || QCheck.Test.fail_reportf "%s: store and model disagree" (show_op op))
        ops
      && contents (fst stores) = Bytes.to_string (fst model)
      && contents (snd stores) = Bytes.to_string (snd model))

(* Pages of a fresh store alias one shared zero page until written, so a
   write that leaked into it would show up in every other store. *)
let qcheck_store_zero_page_private =
  QCheck.Test.make ~name:"writes never reach another store" ~count:100 arb_ops
    (fun ops ->
      let before = Store.create ~name:"b" ~size:size_b in
      let a = Store.create ~name:"a" ~size:size_a in
      List.iter (fun op -> ignore (outcome (fun () -> run_store (a, a) op))) ops;
      let after = Store.create ~name:"c" ~size:size_a in
      contents before = String.make size_b '\000'
      && contents after = String.make size_a '\000')

(* Creating a store costs memory for its page table only; one write
   materializes one page. [Gc.counters] is exact here, whereas
   [Gc.quick_stat]'s major words in OCaml 5 lag until a major slice. *)
let test_store_lazy () =
  let word = Sys.word_size / 8 in
  let major () =
    let _, _, major = Gc.counters () in
    major
  in
  Gc.minor ();
  let w0 = major () in
  let s = Store.create ~name:"big" ~size:(1 lsl 30) in
  let w1 = major () in
  Store.write_u8 s ~addr:((1 lsl 30) - 1) 0x5A;
  let w2 = major () in
  check_bool "1 GiB store allocates under 1 MiB" true
    (w1 -. w0 < float_of_int (1024 * 1024 / word));
  (* One page, plus its header and the few words a minor collection
     may promote meanwhile. *)
  check_bool "one write materializes at most one page" true
    (w2 -. w1 <= float_of_int ((page / word) + 64));
  check_int "last byte" 0x5A (Store.read_u8 s ~addr:((1 lsl 30) - 1));
  check_int "first byte" 0 (Store.read_u8 s ~addr:0)

(* --- alloc --- *)

let test_alloc_basic () =
  let a = Alloc.create ~base:0x1000 ~size:0x1000 in
  check_int "initially all free" 0x1000 (Alloc.avail a);
  let r1 = Option.get (Alloc.alloc a ~size:256) in
  let r2 = Option.get (Alloc.alloc a ~size:256) in
  check_bool "disjoint" true (abs (r1 - r2) >= 256);
  check_int "avail" (0x1000 - 512) (Alloc.avail a);
  Alloc.free a ~addr:r1 ~size:256;
  Alloc.free a ~addr:r2 ~size:256;
  check_int "all back" 0x1000 (Alloc.avail a);
  check_int "coalesced" 0x1000 (Alloc.largest_hole a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1 ~size:4096 in
  let r = Option.get (Alloc.alloc a ~size:64 ~align:64) in
  check_int "aligned" 0 (r mod 64)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:128 in
  let r1 = Alloc.alloc a ~size:100 in
  check_bool "first fits" true (r1 <> None);
  check_bool "second does not" true (Alloc.alloc a ~size:100 = None);
  Alloc.free a ~addr:(Option.get r1) ~size:100;
  check_bool "fits again" true (Alloc.alloc a ~size:100 <> None)

let test_alloc_double_free_rejected () =
  let a = Alloc.create ~base:0 ~size:128 in
  let r = Option.get (Alloc.alloc a ~size:32) in
  Alloc.free a ~addr:r ~size:32;
  check_bool "double free raises" true
    (match Alloc.free a ~addr:r ~size:32 with
    | exception Invalid_argument _ -> true
    | () -> false)

let qcheck_alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:200
    QCheck.(list (int_range 1 64))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:65536 in
      let regions =
        List.filter_map (fun size ->
            Option.map (fun addr -> (addr, size)) (Alloc.alloc a ~size))
          sizes
      in
      let sorted = List.sort compare regions in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

let qcheck_alloc_free_restores =
  QCheck.Test.make ~name:"free restores all bytes and coalesces" ~count:200
    QCheck.(list (int_range 1 128))
    (fun sizes ->
      let a = Alloc.create ~base:64 ~size:8192 in
      let regions =
        List.filter_map (fun size ->
            Option.map (fun addr -> (addr, size)) (Alloc.alloc a ~size))
          sizes
      in
      List.iter (fun (addr, size) -> Alloc.free a ~addr ~size) regions;
      Alloc.avail a = 8192 && Alloc.largest_hole a = 8192)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ("mem.perm", [ tc "permission lattice" test_perm_lattice ]);
    ( "mem.store",
      [
        tc "scalar roundtrip" test_store_scalar_roundtrip;
        tc "bytes and strings" test_store_bytes_and_strings;
        tc "blit between stores" test_store_blit_between_stores;
        tc "faults on out-of-bounds" test_store_faults;
        tc "creation is lazy" test_store_lazy;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
          qcheck_store_model;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
          qcheck_store_zero_page_private;
      ] );
    ( "mem.alloc",
      [
        tc "basic alloc/free/coalesce" test_alloc_basic;
        tc "alignment" test_alloc_alignment;
        tc "exhaustion and reuse" test_alloc_exhaustion;
        tc "double free rejected" test_alloc_double_free_rejected;
        QCheck_alcotest.to_alcotest qcheck_alloc_no_overlap;
        QCheck_alcotest.to_alcotest qcheck_alloc_free_restores;
      ] );
  ]
