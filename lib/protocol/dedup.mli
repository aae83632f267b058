(** Exactly-once filter over [(origin, seq)] pairs, for MD delivery.

    [add] answers exactly as a set of every pair added since the last
    {!reset} would. The state is a window per origin, not a set of
    pairs: when each origin's seqs count up from 0 and all of them
    arrive, in any order within 62 of each other, the state stays one
    small record per origin however long the run, and {!overflow} ends
    at 0. *)

type t

val create : unit -> t

val add : t -> origin:int -> seq:int -> bool
(** Record the pair; [true] iff it was not recorded before.
    @raise Invalid_argument on a negative [seq]. *)

val reset : t -> unit
(** Forget every pair. *)

val overflow : t -> int
(** Seqs held outside the windows: out-of-order arrivals more than 62
    ahead of their origin's watermark, or older than its window (a seq
    that predates a {!reset}). *)
