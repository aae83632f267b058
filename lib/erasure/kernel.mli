(** Buffer-level Reed-Solomon kernel.

    The codecs in this library are all, on their hot path, the same
    computation: a small matrix of field coefficients applied to long
    byte buffers. This module packages the three ingredients of the
    table-driven, row-major formulation they share:

    - {b product-table sweeps} ({!mul_buf}/{!muladd_buf}, re-exported
      from {!Galois.Gf}; the GF(2{^16}) versions live in
      {!Galois.Gf16}): one 256-entry table per coefficient turns a
      field multiply into a single byte-indexed load;
    - {b stripe transposition} ({!split_cols}/{!merge_cols}) between the
      stripe-major framed value and the column-contiguous buffers the
      sweeps want;
    - {b domain striping} ({!parallel_rows}): sharding the stripe range
      of one encode/decode across OCaml domains for large values.

    See DESIGN.md, section "Codec kernel". *)

type table = Bytes.t
(** A 256-entry GF(2{^8}) product table; see {!Galois.Gf.mul_table}. *)

type table16 = Galois.Gf16.mul_tables
(** Split product tables for one GF(2{^16}) coefficient. *)

val mul_table : Galois.Gf.t -> table
(** [mul_table c] is the cached table with [t.[x] = c * x]; O(1), safe
    from any domain. *)

val mul_buf : table -> src:Bytes.t -> dst:Bytes.t -> off:int -> len:int -> unit
(** [dst.[i] <- c * src.[i]] over [off, off+len). *)

val muladd_buf :
  table -> src:Bytes.t -> dst:Bytes.t -> off:int -> len:int -> unit
(** [dst.[i] <- dst.[i] xor c * src.[i]] over [off, off+len). *)

val row_tables16 : Galois.Gf16.t array -> table16 array
(** GF(2{^16}) row tables. Builds (and caches) each coefficient's split
    tables; call in the coordinating domain before {!parallel_rows} —
    first-time construction must not race. *)

type wtable = Galois.Gf.wtable
(** Word-sweep (chunk) tables for one GF(2{^8}) coefficient; see
    {!Galois.Wops}. *)

type wtable16 = Galois.Gf16.wtable
(** Word-sweep tables for one GF(2{^16}) coefficient. *)

val row_wtables : Galois.Gf.t array -> wtable array
(** Chunk tables for every coefficient of a row (cached globally,
    mutex-guarded — build in the coordinating domain to keep
    construction out of the sharded region). Zero coefficients get a
    table too (never read: the row loops skip them). *)

val row_wtables16 : Galois.Gf16.t array -> wtable16 array
(** GF(2{^16}) chunk tables for a row. Each first-time build costs one
    field multiply per element — reserve for coefficient sets that are
    reused (generator rows) or sweeps long enough to amortize. *)

val split_cols : k:int -> bps:int -> Bytes.t -> Bytes.t array
(** [split_cols ~k ~bps framed] transposes a stripe-major framed buffer
    (each stripe = [k] symbols of [bps] bytes) into [k] column-contiguous
    buffers of one symbol per stripe. Column [j] is exactly systematic
    fragment [j]'s payload.
    @raise Invalid_argument if the buffer is not a whole number of
    stripes. *)

val merge_cols : k:int -> bps:int -> Bytes.t array -> Bytes.t
(** Inverse of {!split_cols}: interleave [k] equal-length column buffers
    back into one stripe-major buffer.
    @raise Invalid_argument on ragged or miscounted columns. *)

val split_cols_into : k:int -> bps:int -> Bytes.t -> dst:Bytes.t -> doff:int -> unit
(** [split_cols_into ~k ~bps framed ~dst ~doff] is {!split_cols}
    transposing into a caller-supplied backing buffer: column [j]
    occupies [doff + j*stripes*bps, doff + (j+1)*stripes*bps) of [dst].
    The zero-copy encode path points fragment views at these ranges.
    @raise Invalid_argument if the framed buffer is not a whole number
    of stripes or the columns exceed [dst]. *)

val merge_cols_sub :
  k:int ->
  bps:int ->
  bufs:Bytes.t array ->
  offs:int array ->
  col_len:int ->
  lo:int ->
  len:int ->
  dst:Bytes.t ->
  doff:int ->
  unit
(** [merge_cols_sub ~k ~bps ~bufs ~offs ~col_len ~lo ~len ~dst ~doff]
    interleaves byte range [lo, lo+len) of the virtual stripe-major
    layout — whose column [j] is the [col_len]-byte view at
    [offs.(j)] of [bufs.(j)] — directly into [dst] at [doff]. Decode
    uses it to extract the value (skipping header and padding) without
    materializing the framed buffer.
    @raise Invalid_argument on ragged views or out-of-range spans. *)

val apply_row8_v :
  coeffs:Galois.Gf.t array ->
  tables:table array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  off:int ->
  len:int ->
  unit
(** View-aware GF(2{^8}) row application on 256-entry product tables
    ([tables.(j) = mul_table coeffs.(j)]):
    [dst.[doff+off+i] <- sum_j coeffs.(j) * srcs.(j).[soffs.(j)+off+i]]
    for [i] in [0, len). Each pass over dst folds up to four non-zero,
    non-unit terms (all four tables stay in L1); zero coefficients are
    skipped, a leading unit is a blit, a later unit an 8-byte-wide xor,
    and an all-zero row zero-fills. The output is byte-identical to one
    sweep per term. Sources and destination may be views into shared
    backing buffers, but dst must not overlap a source range.
    Allocates nothing. The faster sweep once the codec shares the cache
    with a large heap and many coefficients: the BCH codec's encode and
    solve-and-check decode, and every short sweep of {!apply_rows8}. *)

val apply_row16_v :
  coeffs:Galois.Gf16.t array ->
  tables:table16 array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  off:int ->
  len:int ->
  unit
(** View-aware GF(2{^16}) row application on {e split} tables; all
    offsets and [len] are in bytes ([len] even). For one-shot
    coefficient sets (decode submatrices over small fragments) where
    building chunk tables would cost more than the sweep. *)

val apply_row16_w :
  coeffs:Galois.Gf16.t array ->
  wtables:wtable16 array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  off:int ->
  len:int ->
  unit
(** View-aware GF(2{^16}) row application on chunk tables (8 bytes per
    load); offsets and [len] in bytes ([len] even). For reused
    coefficient sets (generator rows) and long sweeps. *)

val apply_rows8 :
  ?domains:int ->
  rows:Galois.Gf.t array array ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dst:Bytes.t ->
  doff:int ->
  len:int ->
  unit ->
  unit
(** [apply_rows8 ~rows ~srcs ~soffs ~dst ~doff ~len ()] applies every
    row of a coefficient matrix over [len] bytes of the sources; row
    [i]'s result fills
    [dst.[doff + i*len .. doff + (i+1)*len)]. The table flavour follows
    the sweep length: below {!short_sweep} bytes the rows run on
    256-entry tables ({!apply_row8_v}), from it on chunk tables,
    sharded over [domains]. The rs-vand and rs-sys encode and decode
    sweeps go through here. *)

val short_sweep : int
(** The crossover sweep length, 2048 bytes: {!apply_rows8} uses chunk
    tables from it on. See DESIGN.md "Codec kernel" for the
    measurements behind it. *)

val parallel_rows :
  ?domains:int -> ?min_chunk:int -> n:int -> (lo:int -> len:int -> unit) -> unit
(** [parallel_rows ~domains ~n f] covers the range [0, n) with disjoint
    calls [f ~lo ~len], sharded over up to [domains] OCaml domains
    (contiguous chunks, one per domain). With [domains <= 1] — the
    default, keeping the deterministic simulator single-domain — or when
    [n < 2 * min_chunk] (default [min_chunk] 4096, so spawning is never
    cheaper than the work), [f] runs inline as a single chunk. [f] must
    be safe to run concurrently on disjoint ranges. If any chunk raises,
    the lowest-indexed exception is re-raised after all domains join. *)
