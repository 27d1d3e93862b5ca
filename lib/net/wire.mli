(** Compact length-prefixed binary wire protocol for the serving stack.

    One frame per message, either direction:

    {v
      u32_le payload_length | u32_le correlation_id | u8 tag | fields
    v}

    Requests carry {!Spp_shard.Serve.request} values (Put/Get/Remove/
    Scan), replies carry {!Spp_shard.Serve.reply} values including the
    typed [Failed] shapes, so the wire vocabulary is exactly the serving
    pipeline's and the wire-vs-in-process differential can compare reply
    digests without any translation layer. Correlation ids are chosen by
    the client and echoed verbatim — replies may arrive out of request
    order (a cache-hit get overtakes queued mutations).

    Encoding appends frames to a caller-owned [Buffer.t] that is meant
    to be [Buffer.clear]ed and reused per send, so a steady-state sender
    allocates no fresh buffer per message. Decoding is resumable: a
    {!decoder} accumulates raw bytes across [feed] calls and yields one
    complete message per [next_*] call, tolerating frames torn across
    arbitrarily small reads (the tests feed one byte at a time). A
    malformed frame — bad length, unknown tag, truncated or oversized
    payload, trailing bytes — surfaces as [Corrupt], after which the
    connection must be dropped: framing cannot be resynchronized. *)

val max_key : int
(** Keys (and scan bounds, and [Op_raised] messages) are length-prefixed
    with 16 bits: 65535 bytes. [encode_*] raises [Invalid_argument]
    beyond it; values use 32-bit lengths bounded by {!max_frame}. *)

val encode_request : Buffer.t -> corr:int -> Spp_shard.Serve.request -> unit
(** Append one request frame. [corr] is truncated to 32 bits. Raises
    [Invalid_argument] if a key exceeds {!max_key} or the frame would
    exceed {!max_frame}. *)

val encode_reply : Buffer.t -> corr:int -> Spp_shard.Serve.reply -> unit
(** Append one reply frame. [Op_raised] messages are truncated to
    {!max_key} bytes rather than rejected — the message is diagnostic. *)

type decoder
(** Resumable incremental frame parser: an internal growable byte
    accumulator plus read/write positions. Never blocks, never throws on
    wire data — malformed input is a [Corrupt] result. *)

val decoder : ?initial:int -> unit -> decoder
(** A fresh decoder ([initial] accumulator bytes, default 4096; grows as
    needed up to torn-frame size and is compacted as frames drain). *)

val feed : decoder -> Bytes.t -> off:int -> len:int -> unit
(** Append [len] raw bytes read from the peer. The bytes are copied, so
    the caller's read buffer can be reused immediately. *)

val feed_string : decoder -> string -> unit
(** [feed] from a string (tests and simple callers). *)

val buffered : decoder -> int
(** Bytes currently accumulated but not yet consumed by [next_*]. *)

type 'a popped =
  | Msg of int * 'a       (** (correlation id, message) *)
  | Awaiting              (** no complete frame buffered — read more *)
  | Corrupt of string     (** framing violated — close the connection *)

val next_request : decoder -> Spp_shard.Serve.request popped
(** Pop the next complete request frame, if any. Call in a loop until
    [Awaiting]. A reply tag on a request stream is [Corrupt]. *)

val next_reply : decoder -> Spp_shard.Serve.reply popped
(** Pop the next complete reply frame, if any. *)
