(** A reusable process-wide domain pool for the batch simulation
    engine ({!Sim.run_batch}).

    OCaml 5 caps concurrent domains at ~128, so simulators must never
    spawn domains per batch.  One lazily-created pool grows to the
    largest [jobs] ever requested and is shut down at process exit; any
    number of batches share it (regions are serialized by the fork-join
    protocol itself). *)

(** Hard ceiling on [jobs] — requests above it are clamped. *)
val max_jobs : int

(** [run ~jobs f] runs [f 0] .. [f (jobs - 1)] concurrently ([f 0] on
    the calling domain) and returns when all have finished.  With
    [jobs <= 1], just calls [f 0] inline.  An exception raised by any
    chunk is re-raised after the join; the pool stays usable. *)
val run : jobs:int -> (int -> unit) -> unit
