(* The semantics graph of section 8, in executable form — compacted.

   At build time the alias union-find is resolved ONCE into dense
   canonical-net ids ("classes"): [canon] maps every original net id to
   its class, [rep] maps a class back to the union-find root that
   represents it.  All node inputs/outputs, adjacency and per-net
   bookkeeping are indexed by class id, so the simulator engines never
   call [Netlist.canonical] on a hot path.

   Adjacency is CSR-style: flat [int array] consumer and producer lists
   with offset tables, one entry per source occurrence (a node reading
   the same net twice appears twice — the firing engine's worklist
   discipline relies on that).

   Registers connect cycles without introducing combinational edges;
   [reg_of_out]/[regs_of_in] give O(1) access from a class to the
   registers that feed or latch it (hoisted out of the per-cycle path —
   the simulator used to rebuild a hashtable of register outputs every
   cycle).

   The graph is the one compacted IR of a design: the static checks,
   lint, the abstract interpreter, the sequential prover, the reduction,
   the simulator and the Verilog emitter all read it.  [build] keeps
   the last graph in one ephemeron slot keyed on the design record, so
   a command compacts its netlist once; a record rebuilt around a new
   netlist ([Reduce.run]'s [{ design with netlist }]) is a new key, and
   the graph never outlives its design.  Two domains racing on the slot
   at worst build the graph twice. *)

type node =
  | Ngate of {
      op : Netlist.gate_op;
      inputs : Netlist.src array;
      output : int;
    }
  | Ndriver of {
      guard : Netlist.src option;
      source : Netlist.src;
      target : int;
    }

type t = {
  design : Elaborate.design;
  nl : Netlist.t;
  n_nets : int;
  n_classes : int;
  canon : int array;
  rep : int array;
  nodes : node array;
  gates : Netlist.gate array;
  drivers : Netlist.driver array;
  cons_off : int array;
  cons_nodes : int array;
  prod_off : int array;
  prod_nodes : int array;
  producer_count : int array;
  mem_off : int array;
  mem_nets : int array;
  class_kind : Etype.kind array;
  net_kind : Etype.kind array;
  names : string array;
  regs : Netlist.reg array;
  reg_in : int array;
  reg_out : int array;
  reg_of_out : int array;
  regs_of_in : int list array;
  reg_out_class : bool array;
  input_class : bool array;
  clk : int;
  rset : int;
}

let node_inputs = function
  | Ngate { inputs; _ } -> Array.to_list inputs
  | Ndriver { guard; source; _ } -> source :: Option.to_list guard

let node_output = function
  | Ngate { output; _ } -> output
  | Ndriver { target; _ } -> target

(* Top-level testbench inputs: IN/INOUT pins of root instances, plus CLK
   and RSET. *)
let top_input_nets (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let roots =
    List.filter
      (fun (i : Netlist.instance) ->
        not (String.contains i.Netlist.ipath '.'))
      (Netlist.instances nl)
  in
  let pins =
    List.concat_map
      (fun (i : Netlist.instance) ->
        List.concat_map
          (fun (_, m, nets) ->
            match m with
            | Etype.In | Etype.Inout -> nets
            | Etype.Out -> [])
          i.Netlist.iports)
      roots
  in
  design.Elaborate.clk_net :: design.Elaborate.rset_net :: pins

(* CSR offsets from per-class counts *)
let prefix n cnt =
  let off = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    off.(c + 1) <- off.(c) + cnt.(c)
  done;
  off

let compact (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let n = Netlist.net_count nl in
  (* resolve the union-find once: original id -> dense class id *)
  let canon = Array.make n (-1) in
  let rep_rev = ref [] in
  let n_classes = ref 0 in
  for id = 0 to n - 1 do
    let root = Netlist.canonical nl id in
    if canon.(root) < 0 then begin
      canon.(root) <- !n_classes;
      rep_rev := root :: !rep_rev;
      incr n_classes
    end;
    canon.(id) <- canon.(root)
  done;
  let n_classes = !n_classes in
  let rep = Array.make n_classes 0 in
  List.iteri (fun i root -> rep.(n_classes - 1 - i) <- root) !rep_rev;
  let canon_src = function
    | Netlist.Snet id -> Netlist.Snet canon.(id)
    | Netlist.Sconst v -> Netlist.Sconst v
  in
  (* nodes, with class ids baked in: gates, then drivers *)
  let gates = Array.of_list (Netlist.gates nl) in
  let drivers = Array.of_list (Netlist.drivers nl) in
  let n_gates = Array.length gates in
  let nodes =
    Array.init
      (n_gates + Array.length drivers)
      (fun i ->
        if i < n_gates then
          let g = gates.(i) in
          Ngate
            {
              op = g.Netlist.op;
              inputs = Array.of_list (List.map canon_src g.Netlist.inputs);
              output = canon.(g.Netlist.output);
            }
        else
          let d = drivers.(i - n_gates) in
          Ndriver
            {
              guard = Option.map canon_src d.Netlist.guard;
              source = canon_src d.Netlist.source;
              target = canon.(d.Netlist.target);
            })
  in
  (* CSR adjacency: count, prefix-sum, fill *)
  let cons_cnt = Array.make n_classes 0 in
  let prod_cnt = Array.make n_classes 0 in
  Array.iter
    (fun node ->
      List.iter
        (function
          | Netlist.Snet s -> cons_cnt.(s) <- cons_cnt.(s) + 1
          | Netlist.Sconst _ -> ())
        (node_inputs node);
      let out = node_output node in
      prod_cnt.(out) <- prod_cnt.(out) + 1)
    nodes;
  let cons_off = prefix n_classes cons_cnt
  and prod_off = prefix n_classes prod_cnt in
  let cons_nodes = Array.make cons_off.(n_classes) 0 in
  let prod_nodes = Array.make prod_off.(n_classes) 0 in
  let cons_fill = Array.copy cons_off and prod_fill = Array.copy prod_off in
  Array.iteri
    (fun id node ->
      List.iter
        (function
          | Netlist.Snet s ->
              cons_nodes.(cons_fill.(s)) <- id;
              cons_fill.(s) <- cons_fill.(s) + 1
          | Netlist.Sconst _ -> ())
        (node_inputs node);
      let out = node_output node in
      prod_nodes.(prod_fill.(out)) <- id;
      prod_fill.(out) <- prod_fill.(out) + 1)
    nodes;
  let producer_count = prod_cnt in
  (* members per class, ascending; per-class kind (mux if any member is
     mux), representative names, per-original declared kind *)
  let mem_cnt = Array.make n_classes 0 in
  Array.iter (fun c -> mem_cnt.(c) <- mem_cnt.(c) + 1) canon;
  let mem_off = prefix n_classes mem_cnt in
  let mem_nets = Array.make n 0 in
  let mem_fill = Array.copy mem_off in
  Array.iteri
    (fun id c ->
      mem_nets.(mem_fill.(c)) <- id;
      mem_fill.(c) <- mem_fill.(c) + 1)
    canon;
  let class_kind = Array.make n_classes Etype.KBool in
  let net_kind = Array.make n Etype.KBool in
  Array.iter
    (fun (net : Netlist.net) ->
      net_kind.(net.Netlist.id) <- net.Netlist.kind;
      if net.Netlist.kind = Etype.KMux then
        class_kind.(canon.(net.Netlist.id)) <- Etype.KMux)
    (Netlist.nets_array nl);
  let names =
    Array.map (fun root -> (Netlist.net nl root).Netlist.name) rep
  in
  (* registers *)
  let regs = Array.of_list (Netlist.regs nl) in
  let reg_in = Array.map (fun (r : Netlist.reg) -> canon.(r.Netlist.rin)) regs in
  let reg_out =
    Array.map (fun (r : Netlist.reg) -> canon.(r.Netlist.rout)) regs
  in
  let reg_of_out = Array.make n_classes (-1) in
  Array.iteri (fun i c -> reg_of_out.(c) <- i) reg_out;
  let regs_of_in = Array.make n_classes [] in
  Array.iteri (fun i c -> regs_of_in.(c) <- i :: regs_of_in.(c)) reg_in;
  let reg_out_class = Array.make n_classes false in
  Array.iter (fun c -> reg_out_class.(c) <- true) reg_out;
  let input_class = Array.make n_classes false in
  List.iter
    (fun id -> input_class.(canon.(id)) <- true)
    (top_input_nets design);
  {
    design;
    nl;
    n_nets = n;
    n_classes;
    canon;
    rep;
    nodes;
    gates;
    drivers;
    cons_off;
    cons_nodes;
    prod_off;
    prod_nodes;
    producer_count;
    mem_off;
    mem_nets;
    class_kind;
    net_kind;
    names;
    regs;
    reg_in;
    reg_out;
    reg_of_out;
    regs_of_in;
    reg_out_class;
    input_class;
    clk = canon.(design.Elaborate.clk_net);
    rset = canon.(design.Elaborate.rset_net);
  }

(* the last design asked for and its graph *)
let last : (Elaborate.design, t) Ephemeron.K1.t option Atomic.t =
  Atomic.make None

let build (design : Elaborate.design) =
  match Option.bind (Atomic.get last) (fun e -> Ephemeron.K1.query e design) with
  | Some g -> g
  | None ->
      let g = compact design in
      Atomic.set last (Some (Ephemeron.K1.make design g));
      g

let iter_consumers g c f =
  for k = g.cons_off.(c) to g.cons_off.(c + 1) - 1 do
    f g.cons_nodes.(k)
  done

let iter_producers g c f =
  for k = g.prod_off.(c) to g.prod_off.(c + 1) - 1 do
    f g.prod_nodes.(k)
  done

let producer g c k = g.prod_nodes.(g.prod_off.(c) + k)

let consumer_count g c = g.cons_off.(c + 1) - g.cons_off.(c)

let member_count g c = g.mem_off.(c + 1) - g.mem_off.(c)

let members g c =
  List.init (member_count g c) (fun k -> g.mem_nets.(g.mem_off.(c) + k))

let iter_roots g f =
  for id = 0 to g.n_nets - 1 do
    let c = g.canon.(id) in
    if g.rep.(c) = id then f c
  done

(* backward closure from register inputs and root OUT/INOUT pins,
   through producer-node inputs *)
let observable g =
  let obs = Array.make g.n_classes false in
  let stack = ref [] in
  let mark c =
    if not obs.(c) then begin
      obs.(c) <- true;
      stack := c :: !stack
    end
  in
  Array.iter mark g.reg_in;
  List.iter
    (fun (i : Netlist.instance) ->
      if not (String.contains i.Netlist.ipath '.') then
        List.iter
          (fun (_, mode, nets) ->
            match mode with
            | Etype.Out | Etype.Inout ->
                List.iter (fun id -> mark g.canon.(id)) nets
            | Etype.In -> ())
          i.Netlist.iports)
    (Netlist.instances g.nl);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        iter_producers g c (fun node ->
            List.iter
              (function Netlist.Snet s -> mark s | Netlist.Sconst _ -> ())
              (node_inputs g.nodes.(node)))
  done;
  obs

(* longest path by memoized DFS over producer-node inputs *)
let depths g =
  let memo = Array.make g.n_classes (-1) in
  let rec go c =
    if memo.(c) >= 0 then memo.(c)
    else begin
      memo.(c) <- 0 (* cycle guard: designs with check errors *);
      let d = ref 0 in
      iter_producers g c (fun node ->
          List.iter
            (function
              | Netlist.Snet s when s <> c -> d := max !d (1 + go s)
              | Netlist.Snet _ | Netlist.Sconst _ -> ())
            (node_inputs g.nodes.(node)));
      memo.(c) <- !d;
      !d
    end
  in
  iter_roots g (fun c -> ignore (go c));
  memo
