(** Post-elaboration static checks (report sections 4.1, 4.5, 4.7, 8):

    - single-assignment discipline per alias class: at most one
      unconditional driver, never both conditional and unconditional
      assignments, no unconditional [:=] to an aliased boolean;
    - no combinational feedback — every cycle must pass through a REG;
    - the unused-port rule: once any port of an instance is used by its
      surrounding component, every other port must be used, assigned or
      closed with ['*'];
    - SEQUENTIAL ordering must be compatible with the dataflow partial
      order;
    - undriven-but-read nets are warned about (they read UNDEF).

    The per-class checks run over the design's {!Graph}, in ascending
    order of union-find root, so their diagnostics come out in a fixed
    order. *)

(** {!Graph.top_input_nets}, kept as an alias only because the
    benchmark (perfbench/ops.ml) calls it under this name. *)
val top_input_nets : Elaborate.design -> int list

(** Run all checks, recording diagnostics in [design.diags].  Returns
    [true] when no errors (warnings allowed). *)
val run : Elaborate.design -> bool
