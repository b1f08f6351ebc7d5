(** The semantics graph of report section 8, in executable, compacted
    form: gates and drivers as producer nodes over {e dense
    canonical-net ids} ("classes"), with CSR-style flat consumer,
    producer and member lists.  The alias union-find is resolved once
    at build time — the static checks, the analyses, the simulator
    engines and the Verilog emitter index arrays, they never call
    {!Netlist.canonical}.  Registers contribute no combinational edges
    (they are the legal cycle breakers).

    One graph is built per design: {!build} memoizes on the physical
    identity of the design record, so [Check.run], [Lint.run],
    [Absint.analyze], [Sim.create] and [Verilog.export] on the same
    design share one value.  The graph is immutable once built —
    consumers only read its arrays. *)

type node =
  | Ngate of {
      op : Netlist.gate_op;
      inputs : Netlist.src array;  (** [Snet] ids are class ids *)
      output : int;  (** class id *)
    }
  | Ndriver of {
      guard : Netlist.src option;
      source : Netlist.src;
      target : int;  (** class id *)
    }

type t = {
  design : Elaborate.design;
  nl : Netlist.t;
  n_nets : int;  (** original (pre-compaction) net count *)
  n_classes : int;  (** dense canonical-net count *)
  canon : int array;  (** original net id -> class id *)
  rep : int array;  (** class id -> union-find root (original id) *)
  nodes : node array;
      (** the netlist's gates, then its drivers, each in creation order *)
  gates : Netlist.gate array;  (** node [i < Array.length gates] *)
  drivers : Netlist.driver array;  (** node [Array.length gates + i] *)
  cons_off : int array;  (** CSR offsets into [cons_nodes], per class *)
  cons_nodes : int array;  (** consumer node ids, one per occurrence *)
  prod_off : int array;  (** CSR offsets into [prod_nodes], per class *)
  prod_nodes : int array;  (** producer node ids, ascending *)
  producer_count : int array;  (** per class; [= prod_off.(c+1)-prod_off.(c)] *)
  mem_off : int array;  (** CSR offsets into [mem_nets], per class *)
  mem_nets : int array;  (** member net ids, ascending *)
  class_kind : Etype.kind array;  (** mux if any class member is mux *)
  net_kind : Etype.kind array;  (** declared kind per original net *)
  names : string array;  (** per class: the representative's name *)
  regs : Netlist.reg array;
  reg_in : int array;  (** per register: input class *)
  reg_out : int array;  (** per register: output class *)
  reg_of_out : int array;  (** class -> register index, or -1 *)
  regs_of_in : int list array;  (** class -> registers latching from it *)
  reg_out_class : bool array;
  input_class : bool array;  (** testbench inputs *)
  clk : int;  (** class of the predefined CLK net *)
  rset : int;  (** class of the predefined RSET net *)
}

(** Nets a testbench may drive: CLK, RSET and the IN/INOUT pins of the
    top-level instances. *)
val top_input_nets : Elaborate.design -> int list

(** The graph of a design, built on the first call and returned as the
    same value while the design is the most recent one asked for. *)
val build : Elaborate.design -> t

val node_inputs : node -> Netlist.src list
val node_output : node -> int

(** [iter_consumers g c f] applies [f] to every node consuming class
    [c], once per source occurrence. *)
val iter_consumers : t -> int -> (int -> unit) -> unit

val iter_producers : t -> int -> (int -> unit) -> unit

(** [producer g c k] is the [k]-th producer node of class [c]
    ([0 <= k < producer_count.(c)]), in creation order. *)
val producer : t -> int -> int -> int

val consumer_count : t -> int -> int

val member_count : t -> int -> int

(** The original net ids of a class, ascending. *)
val members : t -> int -> int list

(** [iter_roots g f] applies [f] to every class, in ascending order of
    its union-find root — the order of a [for id = 0 to n_nets - 1]
    loop over canonical nets. *)
val iter_roots : t -> (int -> unit) -> unit

(** Per class: whether it reaches a register input or a root
    OUT/INOUT pin through producer-node inputs. *)
val observable : t -> bool array

(** Per class: the longest combinational chain (in producer nodes)
    ending at it; registers break chains.  A class on a combinational
    cycle gets a finite depth (the cycle is cut where the walk meets
    it). *)
val depths : t -> int array
