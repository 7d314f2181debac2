module Store = M3_mem.Store

type t = {
  length : int;
  label : int64;
  sender_pe : int;
  crd_ep : int;
  reply_ep : int;
  reply_label : int64;
  has_reply : bool;
  is_reply : bool;
  checksum : int;
}

let size = 32

let flag_has_reply = 1
let flag_is_reply = 2

(* FNV-1a folded to 32 bits: a cheap end-to-end integrity check for
   injected corruption, not a cryptographic digest. The sending DTU
   stores 0 when no fault plan is attached, which keeps the serialized
   header bit-identical to the pre-checksum wire format. *)
let payload_checksum payload =
  let h = ref 0x811c9dc5 in
  Bytes.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    payload;
  !h

let write store ~addr h =
  Store.write_u32 store ~addr h.length;
  let flags =
    (if h.has_reply then flag_has_reply else 0)
    lor if h.is_reply then flag_is_reply else 0
  in
  Store.write_u8 store ~addr:(addr + 4) flags;
  Store.write_u8 store ~addr:(addr + 5) h.crd_ep;
  Store.write_u8 store ~addr:(addr + 6) h.reply_ep;
  Store.write_u8 store ~addr:(addr + 7) 0;
  Store.write_i64 store ~addr:(addr + 8) h.label;
  Store.write_i64 store ~addr:(addr + 16) h.reply_label;
  Store.write_u32 store ~addr:(addr + 24) h.sender_pe;
  Store.write_u32 store ~addr:(addr + 28) h.checksum

(* Single-field reads, for a reply that needs only the reply target. *)
let read_has_reply store ~addr =
  Store.read_u8 store ~addr:(addr + 4) land flag_has_reply <> 0

let read_crd_ep store ~addr = Store.read_u8 store ~addr:(addr + 5)
let read_reply_ep store ~addr = Store.read_u8 store ~addr:(addr + 6)
let read_reply_label store ~addr = Store.read_i64 store ~addr:(addr + 16)
let read_sender_pe store ~addr = Store.read_u32 store ~addr:(addr + 24)

let read store ~addr =
  {
    length = Store.read_u32 store ~addr;
    crd_ep = read_crd_ep store ~addr;
    reply_ep = read_reply_ep store ~addr;
    label = Store.read_i64 store ~addr:(addr + 8);
    reply_label = read_reply_label store ~addr;
    sender_pe = read_sender_pe store ~addr;
    has_reply = read_has_reply store ~addr;
    is_reply = Store.read_u8 store ~addr:(addr + 4) land flag_is_reply <> 0;
    checksum = Store.read_u32 store ~addr:(addr + 28);
  }
