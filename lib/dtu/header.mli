(** Message header, prepended to every payload by the sending DTU and
    stored at the head of the receive-ringbuffer slot.

    The header carries the receiver-chosen {e label} (KeyKOS-style
    unforgeable sender identification) and the information needed for a
    direct reply: the sender's reply endpoint, the label the reply
    will carry, and the send endpoint whose credits the reply
    refills. *)

type t = {
  length : int;        (** payload bytes *)
  label : int64;       (** receiver-chosen channel label *)
  sender_pe : int;
  crd_ep : int;        (** sender's send EP to refill on reply *)
  reply_ep : int;      (** sender's receive EP for the reply *)
  reply_label : int64; (** label carried by the reply *)
  has_reply : bool;    (** whether a reply is permitted *)
  is_reply : bool;     (** whether this message itself is a reply *)
  checksum : int;      (** payload integrity check; 0 = unchecked *)
}

(** Bytes a header occupies on the wire and in a ringbuffer slot. *)
val size : int

(** [payload_checksum payload] is the 32-bit integrity checksum the
    sending DTU stamps into {!field-checksum} when a fault plan is
    attached (FNV-1a; 0 is reserved for "unchecked"). *)
val payload_checksum : Bytes.t -> int

(** [write store ~addr h] serializes [h] into a store. *)
val write : M3_mem.Store.t -> addr:int -> t -> unit

(** [read store ~addr] deserializes a header. *)
val read : M3_mem.Store.t -> addr:int -> t

(** Single fields of a stored header, read without building a {!t}. *)

val read_has_reply : M3_mem.Store.t -> addr:int -> bool
val read_crd_ep : M3_mem.Store.t -> addr:int -> int
val read_reply_ep : M3_mem.Store.t -> addr:int -> int
val read_reply_label : M3_mem.Store.t -> addr:int -> int64
val read_sender_pe : M3_mem.Store.t -> addr:int -> int
