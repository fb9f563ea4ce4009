(** A fixed-size pool of OCaml domains for embarrassingly-parallel fan-out.

    This is the {e only} source of real OS-level parallelism in the system;
    everything else (redo workers, clients, shards) multiplexes simulated
    timelines onto one OS thread.  Tasks given to [map] must therefore
    share no mutable state — in practice each task owns a whole engine
    (built from a [scaled] setup or instantiated from an immutable crash
    image), so all instrumentation and clocks are domain-private.

    Determinism contract: [map] preserves input order in its result list
    and re-raises the first task failure in input order, so outcomes are
    independent of how the OS schedules the domains. *)

type t

val create : domains:int -> t
(** [domains] is the maximum parallelism; [map] over fewer items spawns
    fewer.  Raises [Invalid_argument] for a count below 1. *)

val size : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every item, on up to [size] fresh domains spawned for this
    call and joined before it returns.  With a pool of size 1 (or a single
    item) this is [List.map] on the calling domain — the reference path.
    Results come back in input order; if any task raised, the first
    failure (in input order) is re-raised after all domains join. *)
