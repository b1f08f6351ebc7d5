(** Proof-carrying netlist reduction, driven by {!Absint}.

    A cone-of-influence rewrite of the elaborated netlist: nodes whose
    output cannot reach a register or a root OUT/INOUT pin are dropped,
    single-producer classes the abstract interpretation proved constant
    are replaced by one constant driver, constant reads are folded
    through gates (with identity-input pruning: AND(1,x) = x and the
    NAND/NOR duals), guards that fold to 1 become unconditional, and
    unguarded single-producer copies [t := s] are elided by merging the
    two net classes (wire elision — on pure distribution networks like
    the routing benchmark this is most of the netlist).

    The reduced design shares nets and instances with the original
    ({!Netlist.with_nodes_merged}); its alias union-find is a copy,
    extended by the merged copies, so class {e indices} may differ from
    the original's.  Cross-design comparison therefore goes through
    per-net class maps ({!Graph}[.canon] of each design):
    oracle row O6 asserts, for every net the analysis marked
    observable, that optimized and unoptimized snapshots agree.

    Soundness notes baked into the rewrite:
    - multi-producer classes are never replaced by a constant, even
      when their resolution is provably constant — the runtime
      multiple-drive check must keep firing exactly as before;
    - register outputs and testbench-pokeable classes are never folded
      (sequential state latches; pins are poked);
    - a never-firing driver (guard provably 0) is dropped only when the
      class keeps another producer — alone it pins the class at NOINFL
      and is kept as the class's single (constant) producer instead;
    - a copy is merged only when its target is not pokeable, not a
      register output, and not a mux net grafted onto a boolean class
      (the merge must not change the source class's firing rule);
    - copy propagation is disabled entirely in designs with a RANDOM
      source: RANDOM streams are keyed by dense class id
      ({!Zeus_sim.Prand}), and any merge renumbers the classes behind
      every stream in the design.

    The rewrite assumes testbench pokes target top-level inputs (CLK,
    RSET, root IN/INOUT pins) — the classes the analysis treats as
    unknown.  Poking an internal net of an optimized simulation may
    observe folded logic. *)

type stats = {
  classes : int;
  const0 : int;
  const1 : int;
  stuckx : int;
  stuckz : int;
  varying : int;
  unobservable : int;
  gates_before : int;
  gates_after : int;
  drivers_before : int;
  drivers_after : int;
  consts_folded : int;  (** classes replaced by a single constant driver *)
  copies_merged : int;
      (** unguarded single-producer copies [t := s] whose target class
          was merged into the source's — wire elision *)
  nets_eliminated : int;
      (** classes that had producers and lost them all (dead cones) *)
  steps : int;  (** abstract-interpretation worklist evaluations *)
}

val pp_stats : stats Fmt.t

type result = {
  design : Elaborate.design;  (** the reduced design *)
  ai : Absint.t;  (** the proof table the reduction was derived from *)
  stats : stats;
}

val run : Elaborate.design -> result

(** A user-facing display name for a class: the first member net whose
    name carries no compiler-internal ['#'], else the representative. *)
val class_name : Graph.t -> int -> string

(** The proof table rows worth showing a human: classes with at least
    one producer that are non-varying or unobservable, in class order —
    [(class id, display name, classification, observable, producers)]. *)
val proof_table :
  result -> (int * string * Absint.classification * bool * int) list

(** The whole proof-carrying artifact as JSON: every class (name,
    classification, observability, producer count) plus the stats
    block.  Schema version 1. *)
val json_of_result : result -> string
