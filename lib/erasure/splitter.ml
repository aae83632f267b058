let header_len = 4

let frame ~k v =
  if k <= 0 then invalid_arg "Splitter.frame: k must be positive";
  let len = Bytes.length v in
  if len > 0x7fffffff then invalid_arg "Splitter.frame: value too large";
  let total = header_len + len in
  let padded = (total + k - 1) / k * k in
  let out = Bytes.make padded '\000' in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.blit v 0 out header_len len;
  out

(* Header checks shared by [unframe] and [extract], so both reject a
   malformed frame with the same message: a framed layout of [total]
   bytes must hold the header, and the value length [hdr] declares must
   fit in it. *)
let check_total total =
  if total < header_len then invalid_arg "Splitter: frame shorter than header"

let value_len ~total hdr =
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || header_len + len > total then
    invalid_arg "Splitter: corrupt length header";
  len

let unframe framed =
  let total = Bytes.length framed in
  check_total total;
  Bytes.sub framed header_len (value_len ~total framed)

(* Decode counterpart of [unframe] for the zero-copy path: the framed
   buffer is never materialized; header and value bytes are interleaved
   straight out of the k decoded column views. *)
let extract ~k ~bps ~bufs ~offs ~col_len =
  let total = k * col_len in
  check_total total;
  let hdr = Bytes.create header_len in
  Kernel.merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo:0 ~len:header_len
    ~dst:hdr ~doff:0;
  let len = value_len ~total hdr in
  let out = Bytes.create len in
  Kernel.merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo:header_len ~len
    ~dst:out ~doff:0;
  out

let stripe_count ~k ~value_len =
  if k <= 0 then invalid_arg "Splitter.stripe_count: k must be positive";
  if value_len < 0 then invalid_arg "Splitter.stripe_count: negative length";
  (header_len + value_len + k - 1) / k

let fragment_size = stripe_count
