(** Deterministic pseudo-random number generation for reproducible
    experiments.

    The generator is splitmix64: fast, high quality for simulation purposes,
    and trivially seedable so that every experiment in the paper reproduction
    is bit-for-bit repeatable. *)

type t

val create : seed:int -> t

val split : t -> t
(** An independent generator derived from [t]'s stream, for components that
    must not perturb each other's sequences. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

(** Zipfian distribution over [{0, …, n-1}] with skew [theta] (theta = 0 is
    uniform; common benchmark skew is 0.99).  Sampling is O(log n) via binary
    search over the precomputed CDF. *)
module Zipf : sig
  type dist

  val create : n:int -> theta:float -> dist
  val sample : t -> dist -> int
end
