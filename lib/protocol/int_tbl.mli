(** Open-addressing hash tables keyed by non-negative ints.

    Built for the simulator's hot paths (MD deduplication, the servers'
    H sets): linear probing over flat arrays — no per-insert allocation,
    no generic-hashing C call. Keys must be [>= 0] (packed tags, mids
    and coordinates are). Keys hash by the high bits of a Fibonacci
    product, so keys that differ only in their high bits (packed mids
    and tags) still spread over the whole table. {!Set.remove} deletes
    one key; {!Map} deletes only wholesale, with [reset]. *)

val slot_of : int -> int -> int
(** [slot_of key mask] is [key]'s home slot in a table of [mask + 1]
    slots, [mask + 1] a power of two. *)

module Set : sig
  type t

  val create : int -> t
  (** [create capacity] sizes the table for [capacity] keys without
      growing. *)

  val add : t -> int -> bool
  (** Insert; [true] iff the key was not already present.
      @raise Invalid_argument on a negative key. *)

  val mem : t -> int -> bool

  val remove : t -> int -> bool
  (** Delete; [true] iff the key was present. Leaves no tombstone. *)

  val length : t -> int

  val reset : t -> unit
  (** Remove every key, retaining capacity. *)

  val iter : (int -> unit) -> t -> unit
end

module Map : sig
  type 'a t

  val create : int -> 'a t
  (** [create capacity] sizes the table for [capacity] keys without
      growing. The value array is allocated at the first insertion. *)

  val replace : 'a t -> int -> 'a -> unit
  (** Insert or overwrite. @raise Invalid_argument on a negative key. *)

  val find_opt : 'a t -> int -> 'a option

  val find_exn : 'a t -> int -> 'a
  (** The value bound to the key, allocation-free.
      @raise Not_found when absent (without a backtrace). *)

  val find : 'a t -> int -> default:'a -> 'a
  (** [find t key ~default] is the value bound to [key], or [default]
      when absent — unlike {!find_opt}, allocation-free. *)

  val length : 'a t -> int

  val reset : 'a t -> unit
  (** Remove every key, retaining the key array's capacity and
      releasing every stored value. *)

  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end
