(** Symbol I/O abstraction shared by the field-generic codecs.

    A symbol module fixes the field the code works over and how one code
    symbol is laid out in a byte buffer; the generic codecs
    ({!Rs_bch_gen}) are functors over this. Besides single-symbol get/set
    it exposes the view-aware row sweep of the codec kernel (see {!Kernel}
    and DESIGN.md "Codec kernel") and the incremental parity update for
    the field, so the functors run row-major over whole fragments. *)

module type S = sig
  module F : Galois.Field.S

  val bytes_per_symbol : int

  val max_n : int
  (** Longest supported code: [F.order - 1]. *)

  val get : bytes -> int -> F.t
  (** [get buf pos] reads the symbol starting at byte [pos]. *)

  val set : bytes -> int -> F.t -> unit
  (** [set buf pos v] writes the symbol starting at byte [pos]. *)

  type row_tables
  (** Product tables for every coefficient of one matrix row. *)

  val row_tables : F.t array -> row_tables
  (** Build (or fetch from cache) a row's tables. Call in the
      coordinating domain before sharding work across domains. *)

  val apply_row :
    coeffs:F.t array ->
    tables:row_tables ->
    srcs:bytes array ->
    soffs:int array ->
    dst:bytes ->
    doff:int ->
    off:int ->
    len:int ->
    unit
  (** [dst.[doff+off ..] <- sum_j coeffs.(j) * srcs.(j).[soffs.(j)+off ..]]
      over [len] bytes ([off]/[len] whole symbols); see
      {!Kernel.apply_row8_v}. *)

  val update :
    ?domains:int ->
    n:int ->
    k:int ->
    rows:F.t array array ->
    fragments:Fragment.t array ->
    value:bytes ->
    pos:int ->
    bytes ->
    bytes * Fragment.t array
  (** {!Rs_update.update} for the field. *)
end

(** One byte per symbol, GF(2{^8}): codes up to length 255. *)
module Byte : S with module F = Galois.Gf = struct
  module F = Galois.Gf

  let bytes_per_symbol = 1
  let max_n = 255
  let get buf pos = Char.code (Bytes.get buf pos)
  let set buf pos v = Bytes.set buf pos (Char.chr v)

  type row_tables = Kernel.table array

  let row_tables = Array.map Kernel.mul_table
  let apply_row = Kernel.apply_row8_v

  let update = Rs_update.update
end

(** Two bytes (big-endian) per symbol, GF(2{^16}): codes up to 65535. *)
module Wide : S with module F = Galois.Gf16 = struct
  module F = Galois.Gf16

  let bytes_per_symbol = 2
  let max_n = 65535
  let get = Bytes.get_uint16_be
  let set = Bytes.set_uint16_be

  type row_tables = Kernel.table16 array

  let row_tables = Kernel.row_tables16
  let apply_row = Kernel.apply_row16_v
  let update = Rs_update.update16
end
