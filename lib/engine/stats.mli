(** Relation statistics for cardinality estimation.

    The optimizer's cost model needs, per base relation: the bag
    cardinality, the support size (distinct tuples), and per column the
    number of distinct values plus the numeric range when the domain is
    numeric.  Statistics are computed by one scan and are exact — on
    in-memory bags there is no reason to sample. *)

open Mxra_relational

type column = {
  distinct : int;  (** Distinct values in the column. *)
  min_value : Value.t option;  (** Smallest value; [None] when empty. *)
  max_value : Value.t option;
  cumulative : (float * int) array;
      (** For numeric columns: distinct values ascending, paired with the
          cumulative tuple count (multiplicities included) up to and
          including that value — an exact equi-depth histogram.  Empty
          for non-numeric columns. *)
}

type t = {
  cardinality : int;  (** Tuples counted with multiplicity. *)
  support : int;  (** Distinct tuples. *)
  columns : column array;  (** Indexed 0-based; attribute [i] at [i-1]. *)
}

val of_relation : Relation.t -> t
(** One pass over the bag: attribute 1 is counted in runs along the
    bag's tuple order, every other attribute in a hash table of value
    counts whose distinct values are then sorted once. *)

val column : t -> int -> column
(** 1-based, matching attribute addressing.
    @raise Invalid_argument when out of range. *)

val distinct_keys : t -> int list -> int
(** [distinct_keys s cols]: estimated distinct composite keys over the
    1-based columns [cols] — per-column distinct counts multiplied,
    capped by the support.  At least 1.  Index metadata for the cost
    model.
    @raise Invalid_argument on an empty or out-of-range column list. *)

val dup_factor : t -> float
(** [cardinality / support]; 1.0 for duplicate-free relations, and by
    convention 1.0 for the empty relation. *)

val fraction_below : t -> int -> float -> float option
(** [fraction_below s i x]: exact fraction of tuples whose numeric
    attribute [i] is [< x]; [None] when the column is non-numeric or the
    relation empty.  The basis for data-driven range selectivity. *)

val fraction_eq : t -> int -> float -> float option
(** Exact fraction with attribute [i] equal to [x]. *)

type env = string -> t option
(** Statistics lookup for named relations. *)

val env_of_database : Database.t -> env
(** Statistics of the relations [db] binds, each computed on its first
    lookup and kept for the env's lifetime, so an env costs only the
    relations an expression scans.  Nothing outlives the env: two envs
    over the same relation compute its statistics twice. *)

val pp : Format.formatter -> t -> unit
