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

   The analysis runs over the design's Graph: dense class ids and CSR
   consumer/producer node lists.  A FIFO worklist runs the monotone
   transfer functions to a fixpoint; the lattice has height 2, so
   every class is re-evaluated O(fan-in) times. *)

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
  graph : Graph.t;
  value : av array;
  cls : classification array;
  observable : bool array;
  steps : int;
}

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
  let g = Graph.build design in
  let n_classes = g.Graph.n_classes in
  (* register indices per output class, newest first *)
  let regs_of_out = Array.make n_classes [] in
  Array.iteri
    (fun i oc -> regs_of_out.(oc) <- i :: regs_of_out.(oc))
    g.Graph.reg_out;
  (* the engines give a class with no driving value a kind-dependent
     default — boolean UNDEF, multiplex NOINFL *)
  let mux c = g.Graph.class_kind.(c) = Etype.KMux in
  let value = Array.make n_classes Bot in
  let av_of_src = function
    | Netlist.Sconst v -> Const v
    | Netlist.Snet c -> value.(c)
  in
  (* gate transfer: Const inputs are exact, Top inputs are unknown —
     the partial evaluators fire exactly when the output is forced.
     With a Bot input an unforced output stays Bot (strict). *)
  let eval_node i =
    match g.Graph.nodes.(i) with
    | Graph.Ngate { op; inputs; _ } ->
        let avs = List.map av_of_src (Array.to_list inputs) in
        let opt =
          List.map (function Const v -> Some v | Bot | Top -> None) avs
        in
        (match eval_gate_const op opt with
        | Some v -> Const v
        | None -> if List.mem Bot avs then Bot else Top)
    | Graph.Ndriver { guard; source; _ } -> (
        match guard with
        | None -> av_of_src source
        | Some guard -> (
            match av_of_src guard with
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
    if g.Graph.input_class.(c) then Top (* testbench-pokeable: CLK, RSET, pins *)
    else begin
      let contribs = ref [] in
      Graph.iter_producers g c (fun node ->
          contribs := eval_node node :: !contribs);
      (* register widening: power-up value joined with everything the
         input can latch; NOINFL keeps the stored value *)
      let regv =
        List.fold_left
          (fun acc i ->
            let latched =
              match value.(g.Graph.reg_in.(i)) with
              | Bot -> Bot
              | Const Logic.Noinfl -> Bot
              | Const v -> Const (Logic.booleanize v)
              | Top -> Top
            in
            join acc (join (Const g.Graph.regs.(i).Netlist.rinit) latched))
          Bot regs_of_out.(c)
      in
      if !contribs = [] && regs_of_out.(c) = [] then
        (* producer-less: a boolean net reads UNDEF forever, a
           multiplex one floats *)
        Const (if mux c then Logic.Noinfl else Logic.Undef)
      else
        let v = join (resolve_abs !contribs) regv in
        (* kind default: every producer provably firing NOINFL leaves a
           boolean class UNDEF — only multiplex classes are stuck-Z *)
        match v with
        | Const l
          when Logic.equal l Logic.Noinfl
               && (not (mux c))
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
      Graph.iter_consumers g c (fun node ->
          push (Graph.node_output g.Graph.nodes.(node)));
      List.iter (fun i -> push g.Graph.reg_out.(i)) g.Graph.regs_of_in.(c)
    end
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
  { graph = g; value; cls; observable = Graph.observable g; steps = !steps }

let value_of_net t id = t.value.(t.graph.Graph.canon.(id))
let classification_of_net t id = t.cls.(t.graph.Graph.canon.(id))
let observable_net t id = t.observable.(t.graph.Graph.canon.(id))

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
