(* A store is an array of pages. Every page of a fresh store aliases
   [zero_page], which is never written, so creating a store costs one
   pointer per page and memory grows only with the pages a run writes.
   A page is the size of an SPM, so an SPM is exactly one page. The last
   page of a store whose size is not a multiple of [page_size] is short
   once it is materialized; the zero page is always a full page, and the
   bounds check keeps every access inside the store. *)

let page_bits = 16

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

(* [Stdlib.min] and [max] are polymorphic compares; these are not. *)
let min (a : int) b = if a < b then a else b

let max (a : int) b = if a > b then a else b

type t = {
  name : string;
  size : int;
  pages : Bytes.t array;
}

exception Fault of string

let create ~name ~size =
  if size <= 0 then invalid_arg "Store.create: size must be positive";
  { name; size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let name t = t.name

let size t = t.size

let check t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > t.size then
    raise
      (Fault
         (Printf.sprintf "%s: access [%d, %d) outside [0, %d)" t.name addr
            (addr + len) t.size))

let page_len t i = min page_size (t.size - (i lsl page_bits))

(* The page behind [addr], for reading. *)
let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* Page [i], materialized: the one place a page leaves [zero_page]. *)
let writable t i =
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make (page_len t i) '\000' in
    Array.unsafe_set t.pages i p;
    p
  end

(* The unchecked copies below walk [len] bytes in chunks that stay
   inside one page. *)

let rec read_into t ~addr dst ~pos ~len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    Bytes.blit (page t addr) off dst pos n;
    read_into t ~addr:(addr + n) dst ~pos:(pos + n) ~len:(len - n)
  end

let rec write_from t ~addr src ~pos ~len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = min len (page_size - off) in
    Bytes.blit src pos (writable t (addr lsr page_bits)) off n;
    write_from t ~addr:(addr + n) src ~pos:(pos + n) ~len:(len - n)
  end

(* Scalars take the page directly unless they straddle two pages. *)

let read_u8 t ~addr =
  check t ~addr ~len:1;
  Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let write_u8 t ~addr v =
  check t ~addr ~len:1;
  Bytes.unsafe_set
    (writable t (addr lsr page_bits))
    (addr land page_mask)
    (Char.unsafe_chr (v land 0xff))

let read_u32 t ~addr =
  check t ~addr ~len:4;
  let off = addr land page_mask in
  let v =
    if off <= page_size - 4 then Bytes.get_int32_le (page t addr) off
    else begin
      let b = Bytes.create 4 in
      read_into t ~addr b ~pos:0 ~len:4;
      Bytes.get_int32_le b 0
    end
  in
  Int32.to_int v land 0xffffffff

let write_u32 t ~addr v =
  check t ~addr ~len:4;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable t (addr lsr page_bits)) off (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    write_from t ~addr b ~pos:0 ~len:4
  end

let read_i64 t ~addr =
  check t ~addr ~len:8;
  let off = addr land page_mask in
  if off <= page_size - 8 then Bytes.get_int64_le (page t addr) off
  else begin
    let b = Bytes.create 8 in
    read_into t ~addr b ~pos:0 ~len:8;
    Bytes.get_int64_le b 0
  end

let write_i64 t ~addr v =
  check t ~addr ~len:8;
  let off = addr land page_mask in
  if off <= page_size - 8 then
    Bytes.set_int64_le (writable t (addr lsr page_bits)) off v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_from t ~addr b ~pos:0 ~len:8
  end

let read_bytes t ~addr ~len =
  check t ~addr ~len;
  let b = Bytes.create len in
  read_into t ~addr b ~pos:0 ~len;
  b

let write_bytes t ~addr src ~pos ~len =
  check t ~addr ~len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    raise (Fault (Printf.sprintf "%s: bad source slice" t.name));
  write_from t ~addr src ~pos ~len

let rec copy ~src ~src_addr ~dst ~dst_addr ~len =
  if len > 0 then begin
    let soff = src_addr land page_mask and doff = dst_addr land page_mask in
    let n = min len (page_size - max soff doff) in
    let sp = page src src_addr and di = dst_addr lsr page_bits in
    if not (sp == zero_page && Array.unsafe_get dst.pages di == zero_page) then
      Bytes.blit sp soff (writable dst di) doff n;
    copy ~src ~src_addr:(src_addr + n) ~dst ~dst_addr:(dst_addr + n)
      ~len:(len - n)
  end

let blit ~src ~src_addr ~dst ~dst_addr ~len =
  check src ~addr:src_addr ~len;
  check dst ~addr:dst_addr ~len;
  if src == dst && src_addr < dst_addr + len && dst_addr < src_addr + len then
    (* Overlapping ranges of one store: copy out first, as Bytes.blit's
       memmove semantics require. *)
    write_from dst ~addr:dst_addr (read_bytes src ~addr:src_addr ~len) ~pos:0
      ~len
  else copy ~src ~src_addr ~dst ~dst_addr ~len

let rec fill_pages t ~addr ~len c =
  if len > 0 then begin
    let i = addr lsr page_bits and off = addr land page_mask in
    let n = min len (page_size - off) in
    if c = '\000' then begin
      (* Zeroing a whole page hands it back to the zero page. *)
      if off = 0 && n = page_len t i then Array.unsafe_set t.pages i zero_page
      else if Array.unsafe_get t.pages i != zero_page then
        Bytes.fill (Array.unsafe_get t.pages i) off n c
    end
    else Bytes.fill (writable t i) off n c;
    fill_pages t ~addr:(addr + n) ~len:(len - n) c
  end

let fill t ~addr ~len c =
  check t ~addr ~len;
  fill_pages t ~addr ~len c

let read_string t ~addr ~len = Bytes.unsafe_to_string (read_bytes t ~addr ~len)

let write_string t ~addr s =
  write_bytes t ~addr (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
