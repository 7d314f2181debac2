module W = struct
  type t = Buffer.t

  let create () = Buffer.create 64

  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let i64 t v = Buffer.add_int64_le t v

  let u64 t v = i64 t (Int64.of_int v)

  let str t s =
    u64 t (String.length s);
    Buffer.add_string t s

  let bytes t b =
    u64 t (Bytes.length b);
    Buffer.add_bytes t b

  let contents t = Buffer.to_bytes t

  let size t = Buffer.length t
end

module R = struct
  type t = { data : Bytes.t; mutable pos : int }

  exception Underflow

  let of_bytes data = { data; pos = 0 }

  let need t n = if t.pos + n > Bytes.length t.data then raise Underflow

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let i64 t =
    need t 8;
    let v = Bytes.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let u64 t = Int64.to_int (i64 t)

  let str t =
    let len = u64 t in
    if len < 0 then raise Underflow;
    need t len;
    let s = Bytes.sub_string t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let bytes t =
    let len = u64 t in
    if len < 0 then raise Underflow;
    need t len;
    let b = Bytes.sub t.data t.pos len in
    t.pos <- t.pos + len;
    b

  let remaining t = Bytes.length t.data - t.pos
end
