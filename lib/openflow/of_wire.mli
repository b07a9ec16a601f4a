(** Binary wire codec for the OpenFlow message subset.

    Framing follows OpenFlow 1.3: an 8-byte header (version 0x04, type,
    length, xid) then a type-specific body; matches and actions are
    TLV-encoded.

    The header length and every list count are [u16] fields, so the
    codec is one framed message per payload only up to 65535 bytes.
    For such messages [decode (encode m) = m] is guaranteed and
    property-tested.  A longer message still encodes to its full
    length, but the header carries that length modulo 65536, so
    [decode] raises {!Parse_error} on it.  An exact-polling flow-stats
    reply from a loaded vswitch (tens of thousands of records) is such
    a message.  Real OpenFlow would split it into [OFPMPF_REPLY_MORE]
    parts; the simulator keeps one message, because only its size
    (the control-channel ledger) is observed. *)

exception Parse_error of string

val version : int

(** Render one framed message. *)
val encode : Of_msg.t -> Bytes.t

(** [encoded_size m = Bytes.length (encode m)] for every message, at any
    length, computed without rendering it (only a carried packet is
    serialised to be sized). *)
val encoded_size : Of_msg.t -> int

(** Parse one framed message.  Raises {!Parse_error} on malformed
    input (wrong version, bad length, unknown type, truncation),
    including any message longer than 65535 bytes. *)
val decode : Bytes.t -> Of_msg.t
