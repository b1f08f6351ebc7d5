(* Four-valued abstract interpretation over the compacted class graph.

   The lattice is flat: Bot < Const v < Top, with the middle layer the
   four values of Logic (0, 1, UNDEF, NOINFL).  [Const v] is a *must*
   fact — the class carries exactly [v] in every cycle under every
   input — so the transfer functions are the simulator's own evaluation
   rules lifted pointwise:

   - gates use the early-firing partial evaluators, with Top as
     "unknown input";
   - drivers case-split on the guard's abstract value (0 contributes
     NOINFL, 1 the source, a provably-undefined guard drives UNDEF);
   - multi-driven classes join producer contributions through the
     abstract drive resolution: all-constant contributions resolve
     exactly via Logic.resolve (a guaranteed conflict is a guaranteed
     UNDEF, matching the runtime multiple-drive check), anything
     varying is Top;
   - register outputs accumulate (widen) the power-up value joined
     with every value the input can latch across cycles; a NOINFL
     input keeps the stored value and contributes nothing new.

   The alias union-find is resolved once into dense class ids — the
   same compaction Zeus_sim.Graph.build performs — and adjacency is
   CSR: flat consumer/producer node-id arrays with offset tables.  A
   FIFO worklist then runs the monotone transfer functions to a
   fixpoint; the lattice has height 2, so every class is re-evaluated
   O(fan-in) times. *)

open Zeus_base

type av =
  | Bot
  | Const of Logic.t
  | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Const u, Const v -> if Logic.equal u v then a else Top

let av_to_string = function
  | Bot -> "bot"
  | Const v -> Printf.sprintf "const-%c" (Logic.to_char v)
  | Top -> "varying"

type classification =
  | Const0
  | Const1
  | StuckX
  | StuckZ
  | Varying

let classification_to_string = function
  | Const0 -> "const-0"
  | Const1 -> "const-1"
  | StuckX -> "stuck-X"
  | StuckZ -> "stuck-Z"
  | Varying -> "varying"

type t = {
  n_classes : int;
  canon : int array;
  rep : int array;
  value : av array;
  cls : classification array;
  observable : bool array;
  input_class : bool array;
  reg_out_class : bool array;
  producers : int array;
  steps : int;
}

(* a producer node with class ids baked into its sources *)
type csrc =
  | Cnet of int
  | Cconst of Logic.t

type node =
  | Ngate of Netlist.gate_op * csrc list
  | Ndriver of csrc option * csrc

let node_inputs = function
  | Ngate (_, inputs) -> inputs
  | Ndriver (guard, source) -> source :: Option.to_list guard

(* evaluate a gate over (possibly unknown) constant inputs with the
   simulator's early-firing rules: [Some v] only when the output is
   forced under all inputs (an AND with one constant-0 input is 0) *)
let eval_gate_const op (vals : Logic.t option list) =
  match (op : Netlist.gate_op) with
  | Netlist.Gand -> Logic.and_partial vals
  | Netlist.Gor -> Logic.or_partial vals
  | Netlist.Gnand -> Logic.nand_partial vals
  | Netlist.Gnor -> Logic.nor_partial vals
  | Netlist.Gxor -> Logic.xor_partial vals
  | Netlist.Gnot -> (
      match vals with
      | [ v ] -> Option.map Logic.not_ v
      | _ -> None)
  | Netlist.Gequal ->
      Logic.map_all
        (fun vs ->
          let n = List.length vs / 2 in
          let a = List.filteri (fun i _ -> i < n) vs
          and b = List.filteri (fun i _ -> i >= n) vs in
          List.fold_left2
            (fun acc x y -> Logic.and2 acc (Logic.equal2 x y))
            Logic.One a b)
        vals
  | Netlist.Grandom -> None

let analyze (design : Elaborate.design) =
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
    | Netlist.Snet id -> Cnet canon.(id)
    | Netlist.Sconst v -> Cconst v
  in
  (* producer nodes, with their output class *)
  let nodes = ref [] and outs = ref [] in
  List.iter
    (fun (g : Netlist.gate) ->
      nodes := Ngate (g.Netlist.op, List.map canon_src g.Netlist.inputs) :: !nodes;
      outs := canon.(g.Netlist.output) :: !outs)
    (Netlist.gates nl);
  List.iter
    (fun (d : Netlist.driver) ->
      nodes :=
        Ndriver (Option.map canon_src d.Netlist.guard, canon_src d.Netlist.source)
        :: !nodes;
      outs := canon.(d.Netlist.target) :: !outs)
    (Netlist.drivers nl);
  let nodes = Array.of_list (List.rev !nodes) in
  let node_out = Array.of_list (List.rev !outs) in
  (* CSR adjacency: count, prefix-sum, fill — consumers (class -> nodes
     reading it) drive the worklist, producers (class -> nodes writing
     it) drive re-evaluation *)
  let cons_cnt = Array.make n_classes 0 and prod_cnt = Array.make n_classes 0 in
  let iter_input_classes node f =
    List.iter (function Cnet c -> f c | Cconst _ -> ()) (node_inputs node)
  in
  Array.iteri
    (fun i node ->
      iter_input_classes node (fun c -> cons_cnt.(c) <- cons_cnt.(c) + 1);
      prod_cnt.(node_out.(i)) <- prod_cnt.(node_out.(i)) + 1)
    nodes;
  let offsets cnt =
    let off = Array.make (n_classes + 1) 0 in
    for c = 0 to n_classes - 1 do
      off.(c + 1) <- off.(c) + cnt.(c)
    done;
    off
  in
  let cons_off = offsets cons_cnt and prod_off = offsets prod_cnt in
  let cons_nodes = Array.make cons_off.(n_classes) 0 in
  let prod_nodes = Array.make prod_off.(n_classes) 0 in
  let cons_fill = Array.copy cons_off and prod_fill = Array.copy prod_off in
  Array.iteri
    (fun i node ->
      iter_input_classes node (fun c ->
          cons_nodes.(cons_fill.(c)) <- i;
          cons_fill.(c) <- cons_fill.(c) + 1);
      let o = node_out.(i) in
      prod_nodes.(prod_fill.(o)) <- i;
      prod_fill.(o) <- prod_fill.(o) + 1)
    nodes;
  (* register wiring: out class -> registers; in class -> out classes *)
  let regs_of_out = Array.make n_classes [] in
  let reg_consumers = Array.make n_classes [] in
  let reg_out_class = Array.make n_classes false in
  List.iter
    (fun (r : Netlist.reg) ->
      let oc = canon.(r.Netlist.rout) and ic = canon.(r.Netlist.rin) in
      regs_of_out.(oc) <- r :: regs_of_out.(oc);
      reg_consumers.(ic) <- oc :: reg_consumers.(ic);
      reg_out_class.(oc) <- true)
    (Netlist.regs nl);
  let input_class = Array.make n_classes false in
  List.iter
    (fun id -> input_class.(canon.(id)) <- true)
    (Check.top_input_nets design);
  (* kind per class (mux if any member is): the engines give a class
     with no driving value a kind-dependent default — boolean UNDEF,
     multiplex NOINFL *)
  let class_mux = Array.make n_classes false in
  Array.iter
    (fun (net : Netlist.net) ->
      if net.Netlist.kind = Etype.KMux then
        class_mux.(canon.(net.Netlist.id)) <- true)
    (Netlist.nets_array nl);
  let value = Array.make n_classes Bot in
  let av_of_src = function
    | Cconst v -> Const v
    | Cnet c -> value.(c)
  in
  (* gate transfer: Const inputs are exact, Top inputs are unknown —
     the partial evaluators fire exactly when the output is forced.
     With a Bot input an unforced output stays Bot (strict). *)
  let eval_node i =
    match nodes.(i) with
    | Ngate (op, inputs) ->
        let avs = List.map av_of_src inputs in
        let opt =
          List.map (function Const v -> Some v | Bot | Top -> None) avs
        in
        (match eval_gate_const op opt with
        | Some v -> Const v
        | None -> if List.mem Bot avs then Bot else Top)
    | Ndriver (guard, source) -> (
        match guard with
        | None -> av_of_src source
        | Some g -> (
            match av_of_src g with
            | Bot -> Bot
            | Top ->
                (* the guard can be 0 (NOINFL), 1 (source) or UNDEF
                   (drives UNDEF): the join is already Top *)
                Top
            | Const v -> (
                match Logic.booleanize v with
                | Logic.Zero -> Const Logic.Noinfl
                | Logic.One -> av_of_src source
                | Logic.Undef | Logic.Noinfl -> Const Logic.Undef)))
  in
  (* abstract Zeus drive resolution over the producer contributions *)
  let resolve_abs = function
    | [] -> Bot (* no producers: the base cases below decide *)
    | contribs ->
        if List.mem Bot contribs then Bot
        else if List.mem Top contribs then Top
        else
          Const
            (Logic.resolve
               (List.map (function Const v -> v | _ -> assert false) contribs))
              .Logic.value
  in
  let eval_class c =
    if input_class.(c) then Top (* testbench-pokeable: CLK, RSET, pins *)
    else begin
      let contribs = ref [] in
      for k = prod_off.(c) to prod_off.(c + 1) - 1 do
        contribs := eval_node prod_nodes.(k) :: !contribs
      done;
      (* register widening: power-up value joined with everything the
         input can latch; NOINFL keeps the stored value *)
      let regv =
        List.fold_left
          (fun acc (r : Netlist.reg) ->
            let latched =
              match value.(canon.(r.Netlist.rin)) with
              | Bot -> Bot
              | Const Logic.Noinfl -> Bot
              | Const v -> Const (Logic.booleanize v)
              | Top -> Top
            in
            join acc (join (Const r.Netlist.rinit) latched))
          Bot regs_of_out.(c)
      in
      if !contribs = [] && regs_of_out.(c) = [] then
        (* producer-less: a boolean net reads UNDEF forever, a
           multiplex one floats *)
        Const (if class_mux.(c) then Logic.Noinfl else Logic.Undef)
      else
        let v = join (resolve_abs !contribs) regv in
        (* kind default: every producer provably firing NOINFL leaves a
           boolean class UNDEF — only multiplex classes are stuck-Z *)
        match v with
        | Const l
          when Logic.equal l Logic.Noinfl
               && (not class_mux.(c))
               && regs_of_out.(c) = [] ->
            Const Logic.Undef
        | v -> v
    end
  in
  (* FIFO worklist to the fixpoint *)
  let queue = Queue.create () and queued = Array.make n_classes false in
  let push c =
    if not queued.(c) then begin
      queued.(c) <- true;
      Queue.add c queue
    end
  in
  for c = 0 to n_classes - 1 do
    push c
  done;
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    queued.(c) <- false;
    incr steps;
    let nv = join value.(c) (eval_class c) in
    if nv <> value.(c) then begin
      value.(c) <- nv;
      for k = cons_off.(c) to cons_off.(c + 1) - 1 do
        push node_out.(cons_nodes.(k))
      done;
      List.iter push reg_consumers.(c)
    end
  done;
  (* observability: backward closure from register inputs and root
     OUT/INOUT pins, through producer-node inputs *)
  let observable = Array.make n_classes false in
  let stack = ref [] in
  let mark c =
    if not observable.(c) then begin
      observable.(c) <- true;
      stack := c :: !stack
    end
  in
  List.iter
    (fun (r : Netlist.reg) -> mark canon.(r.Netlist.rin))
    (Netlist.regs nl);
  List.iter
    (fun (i : Netlist.instance) ->
      if not (String.contains i.Netlist.ipath '.') then
        List.iter
          (fun (_, mode, nets) ->
            match mode with
            | Etype.Out | Etype.Inout ->
                List.iter (fun id -> mark canon.(id)) nets
            | Etype.In -> ())
          i.Netlist.iports)
    (Netlist.instances nl);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        for k = prod_off.(c) to prod_off.(c + 1) - 1 do
          iter_input_classes nodes.(prod_nodes.(k)) mark
        done
  done;
  let cls =
    Array.map
      (function
        | Const Logic.Zero -> Const0
        | Const Logic.One -> Const1
        | Const Logic.Undef -> StuckX
        | Const Logic.Noinfl -> StuckZ
        | Top | Bot -> Varying)
      value
  in
  {
    n_classes;
    canon;
    rep;
    value;
    cls;
    observable;
    input_class;
    reg_out_class;
    producers = prod_cnt;
    steps = !steps;
  }

let value_of_net t id = t.value.(t.canon.(id))
let classification_of_net t id = t.cls.(t.canon.(id))
let observable_net t id = t.observable.(t.canon.(id))

let counts t =
  let c0 = ref 0 and c1 = ref 0 and cx = ref 0 and cz = ref 0 and cv = ref 0 in
  Array.iter
    (function
      | Const0 -> incr c0
      | Const1 -> incr c1
      | StuckX -> incr cx
      | StuckZ -> incr cz
      | Varying -> incr cv)
    t.cls;
  (!c0, !c1, !cx, !cz, !cv)

let unobservable_count t =
  Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 t.observable
