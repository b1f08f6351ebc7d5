(* Post-elaboration static checks (sections 4.1, 4.5, 4.7, 8):

   - single-assignment discipline per alias class: at most one
     unconditional driver, never both conditional and unconditional,
     no unconditional ':=' to an aliased boolean;
   - no combinational feedback: every cycle must pass through a REG;
   - the unused-port rule: once any port of an instance is used, all its
     other ports must be used, assigned or closed with '*';
   - SEQUENTIAL/PARALLEL ordering constraints must be compatible with the
     dataflow partial order;
   - undriven nets that are read (everything except testbench inputs and
     register outputs) get a warning: they read UNDEF forever. *)

open Zeus_base

(* The classes that depend on class [v] (REG breaks the cycle: no edge
   from a register output to its input), in a fixed walk order: through
   gate consumers, then driver consumers, each newest first.  The order
   decides which cycle and which order violation get reported, and the
   cram goldens pin it.  A node reading its own output adds no edge. *)
let iter_dependents (g : Graph.t) v f =
  let n_gates = Array.length g.Graph.gates in
  for pass = 0 to 1 do
    for k = g.Graph.cons_off.(v + 1) - 1 downto g.Graph.cons_off.(v) do
      let node = g.Graph.cons_nodes.(k) in
      if (node < n_gates) = (pass = 0) then begin
        let w = Graph.node_output g.Graph.nodes.(node) in
        if w <> v then f w
      end
    done
  done

(* a class's drivers, newest first, split into unconditional and
   conditional ones *)
let class_drivers (g : Graph.t) c =
  let n_gates = Array.length g.Graph.gates in
  let uncond = ref [] and cond = ref [] in
  Graph.iter_producers g c (fun node ->
      if node >= n_gates then begin
        let d = g.Graph.drivers.(node - n_gates) in
        match d.Netlist.guard with
        | None -> uncond := d :: !uncond
        | Some _ -> cond := d :: !cond
      end);
  (!uncond, !cond)

(* --------------------------------------------------------------- *)

let check_assignment_discipline bag (g : Graph.t) =
  let nl = g.Graph.nl in
  Graph.iter_roots g (fun c ->
      let uncond, cond = class_drivers g c in
      let name id = (Netlist.net nl id).Netlist.name in
      (match uncond with
      | d1 :: d2 :: _ ->
          Diag.Bag.error bag Diag.Assign_error d2.Netlist.dloc
            "'%s' is unconditionally assigned more than once (also at %a) — \
             this could connect power to ground"
            (name d1.Netlist.target) Loc.pp d1.Netlist.dloc
      | _ -> ());
      (match (uncond, cond) with
      | d :: _, c :: _ ->
          Diag.Bag.error bag Diag.Assign_error c.Netlist.dloc
            "'%s' is assigned both conditionally and unconditionally \
             (unconditional assignment at %a)"
            (name d.Netlist.target) Loc.pp d.Netlist.dloc
      | _ -> ());
      (* boolean aliased with '==' must not also get an unconditional ':=' *)
      if Graph.member_count g c > 1 then
        List.iter
          (fun (d : Netlist.driver) ->
            let net = Netlist.net nl d.Netlist.target in
            if net.Netlist.kind = Etype.KBool then
              Diag.Bag.error bag Diag.Assign_error d.Netlist.dloc
                "boolean '%s' is aliased with '==' and also unconditionally \
                 assigned with ':='"
                net.Netlist.name)
          uncond)

let check_cycles bag (g : Graph.t) =
  (* iterative DFS with colouring; report one representative cycle per
     strongly connected region we stumble into *)
  let n = g.Graph.n_classes in
  let colour = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let parent = Array.make n (-1) in
  let reported = ref 0 in
  let report_cycle v u =
    (* cycle: u -> ... -> v -> u along parent links of v *)
    if !reported < 5 then begin
      incr reported;
      let rec collect acc x =
        if x = u || x = -1 then x :: acc else collect (x :: acc) parent.(x)
      in
      let path = collect [] v in
      let names = List.map (fun c -> g.Graph.names.(c)) (u :: List.tl path) in
      Diag.Bag.error bag Diag.Cycle_error
        (Netlist.net g.Graph.nl g.Graph.rep.(u)).Netlist.loc
        "combinational feedback loop (no REG on the path): %s"
        (String.concat " -> " (names @ [ List.hd names ]))
    end
  in
  let rec dfs v =
    colour.(v) <- 1;
    iter_dependents g v (fun w ->
        if colour.(w) = 0 then begin
          parent.(w) <- v;
          dfs w
        end
        else if colour.(w) = 1 then report_cycle v w);
    colour.(v) <- 2
  in
  Graph.iter_roots g (fun v -> if colour.(v) = 0 then dfs v)

let check_unused_ports bag nl =
  (* "used or assigned" means used by the *surrounding* component: only
     touches from a scope other than the instance itself count (the
     instance's own body always reads its IN and drives its OUT pins) *)
  let net_used iid id =
    let net = Netlist.net nl id in
    List.exists (fun scope -> scope <> iid) net.Netlist.touched
  in
  List.iter
    (fun (inst : Netlist.instance) ->
      if not inst.Netlist.is_function_call then begin
        let iid = inst.Netlist.iid in
        let port_used (_, _, nets) = List.exists (net_used iid) nets in
        let ports = inst.Netlist.iports in
        let used, unused = List.partition port_used ports in
        (* ports with zero bits (empty arrays) never count as unused *)
        let unused =
          List.filter (fun (_, _, nets) -> nets <> []) unused
        in
        if used <> [] && unused <> [] then
          Diag.Bag.error bag Diag.Port_error inst.Netlist.iloc
            "instance '%s' of '%s': port(s) %s neither used nor assigned — \
             close them explicitly with '*'"
            inst.Netlist.ipath inst.Netlist.itype
            (String.concat ", "
               (List.map (fun (n, _, _) -> "'" ^ n ^ "'") unused))
      end)
    (Netlist.instances nl)

let check_order_constraints bag (g : Graph.t) =
  let n = g.Graph.n_classes in
  List.iter
    (fun (loc, before, after) ->
      (* the declared order says [before] executes first; it is wrong if
         something written by [after] is needed (transitively) by
         [before] *)
      let target = Array.make n false in
      List.iter (fun id -> target.(g.Graph.canon.(id)) <- true) before;
      let visited = Array.make n false in
      let bad = ref None in
      let rec dfs v =
        if not visited.(v) && !bad = None then begin
          visited.(v) <- true;
          if target.(v) then bad := Some v else iter_dependents g v dfs
        end
      in
      List.iter
        (fun id ->
          let c = g.Graph.canon.(id) in
          if target.(c) then () else iter_dependents g c dfs)
        after;
      match !bad with
      | Some v ->
          Diag.Bag.error bag Diag.Order_error loc
            "SEQUENTIAL order is incompatible with the dataflow: '%s' is \
             computed from a later statement's result"
            g.Graph.names.(v)
      | None -> ())
    (Netlist.order_constraints g.Graph.nl)

let check_undriven bag (g : Graph.t) =
  let nl = g.Graph.nl in
  Graph.iter_roots g (fun c ->
      (* gate outputs are produced by their gate, register outputs by
         their register *)
      if
        g.Graph.producer_count.(c) = 0
        && (not g.Graph.reg_out_class.(c))
        && not g.Graph.input_class.(c)
      then begin
        (* a read member, preferring one with a real source location
           to report at; the highest net id wins within each tier *)
        let located = ref None and any = ref None in
        List.iter
          (fun id ->
            let net = Netlist.net nl id in
            if net.Netlist.reads > 0 then begin
              any := Some net;
              if not (Loc.is_dummy net.Netlist.loc) then located := Some net
            end)
          (Graph.members g c);
        match (!located, !any) with
        | Some net, _ | None, Some net ->
            Diag.Bag.warning bag ~code:Diag.Code.undriven_read
              Diag.Assign_error net.Netlist.loc
              "'%s' is read but never assigned — it reads UNDEF"
              net.Netlist.name
        | None, None -> ()
      end)

(* an alias kept only because the benchmark (perfbench/ops.ml) calls it *)
let top_input_nets = Graph.top_input_nets

let run (design : Elaborate.design) =
  let bag = design.Elaborate.diags in
  let g = Graph.build design in
  check_assignment_discipline bag g;
  check_cycles bag g;
  check_unused_ports bag g.Graph.nl;
  check_order_constraints bag g;
  check_undriven bag g;
  not (Diag.Bag.has_errors bag)
