(** Systematic Reed-Solomon codes with errors-and-erasures decoding.

    This is the codec SODA{_err} needs: with [k = n - f - 2e] it corrects
    any pattern of up to [f] erasures (missing fragments) {e and} up to
    [e] silent corruptions among the fragments that are present, per
    stripe, as long as [2*errors + erasures <= n - k].

    Construction is the classical BCH view of RS codes: the generator
    polynomial is [g(x) = (x - alpha)(x - alpha^2)...(x - alpha^(n-k))]
    and a codeword is [c(x) = x^(n-k) M(x) + (x^(n-k) M(x) mod g)], so
    the message occupies coordinates [n-k .. n-1] (systematic part).
    Decoding solves for the message through an inverted generator
    submatrix and checks the solution against every other present
    fragment; only stripes that fail the check run the scalar
    errors-and-erasures decoder (syndromes, erasure locator, Sugiyama's
    extended-Euclid algorithm, Chien search, Forney's formula). *)

type t

val make : n:int -> k:int -> t
(** @raise Invalid_argument unless [1 <= k <= n <= 255]. *)

val n : t -> int
val k : t -> int

val encode : ?domains:int -> t -> bytes -> Fragment.t array
(** Encode into [n] fragments at indices [0 .. n-1]; fragment [n-k+j]
    carries the systematic message byte [j] of every stripe. [?domains]
    (default 1) shards the stripe range of large values across OCaml
    domains. *)

exception Insufficient_fragments of { needed : int; got : int }

exception Decode_failure of string
(** Raised when the received word is not within the guaranteed correction
    radius (e.g. too many corrupt fragments): the locator has the wrong
    number of roots in range, or correction does not yield a codeword. *)

val decode : ?domains:int -> t -> Fragment.t list -> bytes
(** [decode code frags] reconstructs the value. Fragments whose indices
    are absent are treated as erasures; present fragments may be
    corrupted. Reconstruction is guaranteed whenever
    [2*corruptions + erasures <= n - k] in every stripe.

    Decode is solve-and-check: it solves the message from [k] present
    fragments (systematic ones first) and re-encodes the other present
    fragments; a stripe on which they all agree is already decoded. If
    some stripe disagrees, the scalar decoder corrects the first such
    stripe, and when the fragments it changed fit the radius, the solve
    runs once more with those fragments left out of the basis and the
    checks — a wholly corrupt fragment costs one extra sweep. Stripes
    that still disagree run the scalar decoder in stripe order, so the
    result, and the first failure with its message, are exactly those of
    the scalar decoder run on every stripe. [?domains] shards the
    sweeps and the scalar stripes.
    @raise Insufficient_fragments when fewer than [k] distinct indices
    are present.
    @raise Decode_failure when the error pattern is detectably beyond the
    correction radius.
    @raise Invalid_argument on out-of-range indices or ragged sizes. *)

val update :
  ?domains:int ->
  t ->
  fragments:Fragment.t array ->
  value:bytes ->
  pos:int ->
  bytes ->
  bytes * Fragment.t array
(** Incremental re-encode of a patched value through the [n] generator
    rows (parity rows, then unit rows); see {!Rs_update.update}. *)
