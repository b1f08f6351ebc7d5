(* Structural statistics over an elaborated netlist: gate histogram,
   combinational depth (the longest gate/driver chain between registers
   or inputs and any net), fanout distribution.  Used by `zeusc stats`
   and the E8 analysis (depth is what separates the firing evaluator
   from sweep-to-fixpoint baselines). *)

type t = {
  nets : int;
  gates : int;
  drivers : int;
  regs : int;
  instances : int;
  gate_histogram : (Netlist.gate_op * int) list;
  depth : int; (* longest combinational path, in nodes *)
  max_fanout : int;
  alias_classes : int; (* classes with more than one member *)
  dead_nets : int;
  (* driven nets whose value can never reach an observable point (a
     register input or an OUT pin of a root instance) *)
}

let gate_histogram nl =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g : Netlist.gate) ->
      Hashtbl.replace tbl g.Netlist.op
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g.Netlist.op)))
    (Netlist.gates nl);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* longest combinational path over the class graph *)
let depth g = Array.fold_left max 0 (Graph.depths g)

let max_fanout (g : Graph.t) =
  let best = ref 0 in
  for c = 0 to g.Graph.n_classes - 1 do
    best := max !best (Graph.consumer_count g c)
  done;
  !best

let alias_classes (g : Graph.t) =
  let count = ref 0 in
  for c = 0 to g.Graph.n_classes - 1 do
    if Graph.member_count g c > 1 then incr count
  done;
  !count

(* driven classes (drivers or gate outputs) from which no observable
   point (register input, OUT/INOUT pin of a root instance) is
   reachable *)
let dead_nets (g : Graph.t) =
  let live = Graph.observable g in
  let count = ref 0 in
  for c = 0 to g.Graph.n_classes - 1 do
    if g.Graph.producer_count.(c) > 0 && not live.(c) then incr count
  done;
  !count

let of_design (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let g = Graph.build design in
  {
    nets = Netlist.net_count nl;
    gates = List.length (Netlist.gates nl);
    drivers = List.length (Netlist.drivers nl);
    regs = List.length (Netlist.regs nl);
    instances = List.length (Netlist.instances nl);
    gate_histogram = gate_histogram nl;
    depth = depth g;
    max_fanout = max_fanout g;
    alias_classes = alias_classes g;
    dead_nets = dead_nets g;
  }

let pp ppf t =
  Fmt.pf ppf
    "nets=%d gates=%d drivers=%d regs=%d instances=%d depth=%d max_fanout=%d \
     alias_classes=%d dead_nets=%d@."
    t.nets t.gates t.drivers t.regs t.instances t.depth t.max_fanout
    t.alias_classes t.dead_nets;
  List.iter
    (fun (op, n) ->
      Fmt.pf ppf "  %-6s %d@." (Netlist.gate_op_to_string op) n)
    t.gate_histogram
