(** Checksummed frames for bytes at rest, the layout of every entry of the
    summary cache's disk tier (summaries and batch file records):
    [magic | body length (8 hex) | MD5(body) (32 hex) | body]. *)

(** [encode ~magic body] is [body] framed under [magic]. *)
val encode : magic:string -> string -> string

(** [read ~magic ic] reads one frame at [ic]'s position and returns its
    body; [None] at end of channel or when the frame has another magic, is
    truncated or fails its checksum. A length past the end of the channel
    is rejected before allocating. Never raises. *)
val read : magic:string -> in_channel -> string option
