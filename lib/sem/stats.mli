(** Structural statistics over an elaborated netlist.  [depth] — the
    longest combinational chain between registers/inputs and any net —
    is the quantity that separates the firing evaluator from the
    sweep-to-fixpoint baselines in experiment E8. *)

type t = {
  nets : int;
  gates : int;
  drivers : int;
  regs : int;
  instances : int;
  gate_histogram : (Netlist.gate_op * int) list; (** sorted, descending *)
  depth : int; (** longest combinational path, in nodes *)
  max_fanout : int;
  alias_classes : int; (** '==' classes with more than one member *)
  dead_nets : int;
      (** driven nets whose value can never reach an observable point (a
          register input or an OUT pin of a root instance) *)
}

(** Statistics of a design's netlist, read off its {!Graph}. *)
val of_design : Elaborate.design -> t
val pp : t Fmt.t
