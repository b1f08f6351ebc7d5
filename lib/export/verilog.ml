(* Structural Verilog backend.

   The emitter works on the compacted class graph ([Graph.t]) in
   levelized schedule order ([Sched.t]), so the output reads top-down
   like the evaluation itself.  Everything here is calibrated against
   sim.ml's semantics, not against what "looks like" the obvious
   Verilog:

   - [finalize_net_core] counts every non-NOINFL produced value and
     forces UNDEF on the second one *even when the values agree*.
     Verilog's native wired resolution would merge agreeing drivers, so
     a multi-producer class gets one wire per producer plus an explicit
     first-non-z resolver that yields x on any second driving value.
   - A KBool class with drives = 0 reads UNDEF where the raw resolution
     is NOINFL; registers latch from the *raw* value (all-z keeps the
     stored value).  Classes where the two differ get a separate
     ...$raw wire.
   - [seed_value] consults pokes first, then CLK (constant 1), RSET
     (constant 0), register state, UNDEF.  Producer-less input classes
     become ports; CLK becomes a constant-1 wire plus a separate
     edge-only clock port; producer-less register outputs read their
     always-block reg.
   - RANDOM nodes become input ports: the stream is a pure function of
     (seed, class, cycle) ([Prand]), so a testbench can replay it. *)

open Zeus_base
open Zeus_sem
module Sched = Zeus_sim.Sched
module Sim = Zeus_sim.Sim
module Prand = Zeus_sim.Prand

(* ------------------------------------------------------------------ *)
(* Name mangling                                                        *)
(* ------------------------------------------------------------------ *)

let reserved_words =
  [
    (* Verilog-2001 *)
    "always"; "and"; "assign"; "automatic"; "begin"; "buf"; "bufif0";
    "bufif1"; "case"; "casex"; "casez"; "cell"; "cmos"; "config";
    "deassign"; "default"; "defparam"; "design"; "disable"; "edge";
    "else"; "end"; "endcase"; "endconfig"; "endfunction"; "endgenerate";
    "endmodule"; "endprimitive"; "endspecify"; "endtable"; "endtask";
    "event"; "for"; "force"; "forever"; "fork"; "function"; "generate";
    "genvar"; "highz0"; "highz1"; "if"; "ifnone"; "incdir"; "include";
    "initial"; "inout"; "input"; "instance"; "integer"; "join"; "large";
    "liblist"; "library"; "localparam"; "macromodule"; "medium";
    "module"; "nand"; "negedge"; "nmos"; "nor"; "noshowcancelled";
    "not"; "notif0"; "notif1"; "or"; "output"; "parameter"; "pmos";
    "posedge"; "primitive"; "pull0"; "pull1"; "pulldown"; "pullup";
    "pulsestyle_ondetect"; "pulsestyle_onevent"; "rcmos"; "real";
    "realtime"; "reg"; "release"; "repeat"; "rnmos"; "rpmos"; "rtran";
    "rtranif0"; "rtranif1"; "scalared"; "showcancelled"; "signed";
    "small"; "specify"; "specparam"; "strong0"; "strong1"; "supply0";
    "supply1"; "table"; "task"; "time"; "tran"; "tranif0"; "tranif1";
    "tri"; "tri0"; "tri1"; "triand"; "trior"; "trireg"; "unsigned";
    "use"; "uwire"; "vectored"; "wait"; "wand"; "weak0"; "weak1";
    "while"; "wire"; "wor"; "xnor"; "xor";
    (* common SystemVerilog type keywords, so the output also loads in
       -g2012 tools without escaping surprises *)
    "always_comb"; "always_ff"; "always_latch"; "bit"; "byte"; "enum";
    "int"; "interface"; "logic"; "longint"; "modport"; "packed";
    "shortint"; "struct"; "typedef"; "union";
  ]

let reserved_tbl =
  lazy
    (let h = Hashtbl.create 256 in
     List.iter (fun w -> Hashtbl.replace h w ()) reserved_words;
     h)

let is_reserved w = Hashtbl.mem (Lazy.force reserved_tbl) w

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | '.' -> Buffer.add_string buf "$d"
      | '[' -> Buffer.add_string buf "$b"
      | ']' -> Buffer.add_string buf "$e"
      | '#' -> Buffer.add_string buf "$h"
      | '$' -> Buffer.add_string buf "$$"
      | c -> Buffer.add_string buf (Printf.sprintf "$x%02x" (Char.code c)))
    s;
  Buffer.contents buf

(* The wrapper prefix "v$" never appears in an unwrapped escape result
   (escaping a literal "v$..." yields "v$$...", which is itself wrapped
   below), so mangling stays injective and demangle can strip exactly
   one prefix. *)
let mangle s =
  let base = escape s in
  let wrap =
    base = ""
    || (match base.[0] with '0' .. '9' | '$' -> true | _ -> false)
    || is_reserved base
    || String.starts_with ~prefix:"v$" base
  in
  if wrap then "v$" ^ base else base

let demangle s =
  let body =
    if String.starts_with ~prefix:"v$" s then
      String.sub s 2 (String.length s - 2)
    else s
  in
  let n = String.length body in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (if body.[!i] = '$' && !i + 1 < n then begin
       (match body.[!i + 1] with
       | '$' -> Buffer.add_char buf '$'; i := !i + 2
       | 'd' -> Buffer.add_char buf '.'; i := !i + 2
       | 'b' -> Buffer.add_char buf '['; i := !i + 2
       | 'e' -> Buffer.add_char buf ']'; i := !i + 2
       | 'h' -> Buffer.add_char buf '#'; i := !i + 2
       | 'x' when !i + 3 < n -> (
           match (hex body.[!i + 2], hex body.[!i + 3]) with
           | Some h, Some l ->
               Buffer.add_char buf (Char.chr ((h * 16) + l));
               i := !i + 4
           | _ ->
               Buffer.add_char buf body.[!i];
               incr i)
       | _ ->
           Buffer.add_char buf body.[!i];
           incr i)
     end
     else begin
       Buffer.add_char buf body.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

type dir =
  | Input
  | Output

type port = {
  pdir : dir;
  pname : string;
  ppath : string;
  pclass : int;
}

type t = {
  module_name : string;
  ports : port list;
  net_count : int;
  reg_count : int;
  text : string;
  design : Elaborate.design;
  graph : Graph.t;
  wire_of_class : string array;
  clk_port : string;
  random_ports : (int * string) list;
}

type error =
  | Cyclic
  | Unsupported of string

let error_to_string = function
  | Cyclic ->
      "design has a combinational cycle: no static schedule, cannot be \
       lowered to continuous assignments"
  | Unsupported msg -> "unsupported design: " ^ msg

exception Unsupported_exn of string

let lit = function
  | Logic.Zero -> "1'b0"
  | Logic.One -> "1'b1"
  | Logic.Undef -> "1'bx"
  | Logic.Noinfl -> "1'bz"

let logic_vchar = function
  | Logic.Zero -> '0'
  | Logic.One -> '1'
  | Logic.Undef -> 'x'
  | Logic.Noinfl -> 'z'

let default_module_name (design : Elaborate.design) =
  match design.Elaborate.tops with
  | (name, _) :: _ -> mangle name
  | [] -> "zeus_top"

let export ?module_name (design : Elaborate.design) =
  let g = Graph.build design in
  let sched = Sched.build g in
  if not sched.Sched.acyclic then Error Cyclic
  else
    try
      let n = g.Graph.n_classes in
      let nl = design.Elaborate.netlist in
      let module_name =
        match module_name with
        | Some m -> m
        | None -> default_module_name design
      in
      let producerless c = g.Graph.producer_count.(c) = 0 in
      if not (producerless g.Graph.clk) then
        raise (Unsupported_exn "the predefined CLK net is driven");
      (* input ports: producer-less IN/INOUT pins of root instances
         (plus RSET), named after the first pin net of each class *)
      let top_inputs = Graph.top_input_nets design in
      let in_path = Array.make n None in
      let is_input = Array.make n false in
      List.iter
        (fun id ->
          let c = g.Graph.canon.(id) in
          if in_path.(c) = None then
            in_path.(c) <- Some (Netlist.net nl id).Netlist.name;
          if producerless c && c <> g.Graph.clk then is_input.(c) <- true)
        top_inputs;
      Array.iteri
        (fun c inp ->
          if inp && g.Graph.reg_of_out.(c) >= 0 then
            raise
              (Unsupported_exn
                 (Printf.sprintf
                    "input '%s' is aliased to the output of register '%s': \
                     the simulator gives a poke priority over the stored \
                     value dynamically"
                    g.Graph.names.(c)
                    g.Graph.regs.(g.Graph.reg_of_out.(c)).Netlist.rpath)))
        is_input;
      (* output ports: OUT pins of root instances (and driven INOUT
         pins, which the input scan skipped) *)
      let out_path = Array.make n None in
      List.iter
        (fun (i : Netlist.instance) ->
          if not (String.contains i.Netlist.ipath '.') then
            List.iter
              (fun (_, m, nets) ->
                match m with
                | Etype.Out | Etype.Inout ->
                    List.iter
                      (fun id ->
                        let c = g.Graph.canon.(id) in
                        if out_path.(c) = None then
                          out_path.(c) <-
                            Some (Netlist.net nl id).Netlist.name)
                      nets
                | Etype.In -> ())
              i.Netlist.iports)
        (Netlist.instances nl);
      let is_output =
        Array.init n (fun c -> out_path.(c) <> None && not is_input.(c))
      in
      (* class wire names: port classes take their pin path, everything
         else its representative's name.  Representative names are not
         unique across classes (elaboration synthesizes internal nets
         with repeating names), so every name goes through [uniq] —
         ports first, keeping their pin paths stable. *)
      let used = Hashtbl.create (2 * n) in
      let uniq base =
        if not (Hashtbl.mem used base) then begin
          Hashtbl.replace used base ();
          base
        end
        else begin
          let i = ref 0 in
          while Hashtbl.mem used (Printf.sprintf "%s$%d" base !i) do
            incr i
          done;
          let name = Printf.sprintf "%s$%d" base !i in
          Hashtbl.replace used name ();
          name
        end
      in
      let wire = Array.make n "" in
      for c = 0 to n - 1 do
        if is_input.(c) || is_output.(c) then
          wire.(c) <-
            uniq
              (mangle
                 (match if is_input.(c) then in_path.(c) else out_path.(c) with
                 | Some p -> p
                 | None -> g.Graph.names.(c)))
      done;
      for c = 0 to n - 1 do
        if not (is_input.(c) || is_output.(c)) then
          wire.(c) <- uniq (mangle g.Graph.names.(c))
      done;
      let clk_port = uniq "clk" in
      (* RANDOM nodes: one input port per output class (two RANDOM
         nodes on one class draw the same value — and conflict — in the
         simulator, which the resolver below reproduces) *)
      let random_ports = ref [] in
      Array.iter
        (function
          | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
              if not (List.mem_assoc output !random_ports) then
                random_ports :=
                  (output, uniq (Printf.sprintf "rnd$%d" output))
                  :: !random_ports
          | _ -> ())
        g.Graph.nodes;
      let random_ports =
        List.sort (fun (a, _) (b, _) -> compare a b) !random_ports
      in
      let rand_name c = List.assoc c random_ports in
      (* --- z-capability analysis (conservative "may read NOINFL") --- *)
      let exp_z = Array.make n (-1) in
      let rec exposed_can_z c =
        if exp_z.(c) >= 0 then exp_z.(c) = 1
        else begin
          let r =
            if producerless c then is_input.(c) (* ports may be driven z *)
            else
              match g.Graph.class_kind.(c) with
              | Etype.KBool -> false (* booleanized: z reads as x *)
              | Etype.KMux -> raw_can_z c
          in
          exp_z.(c) <- (if r then 1 else 0);
          r
        end
      and raw_can_z c =
        (* the raw resolution is z only when every producer released *)
        let all = ref true in
        Graph.iter_producers g c (fun nid ->
            if not (node_can_z nid) then all := false);
        !all
      and node_can_z nid =
        match g.Graph.nodes.(nid) with
        | Graph.Ngate _ -> false (* gates booleanize: 0/1/x only *)
        | Graph.Ndriver { guard = Some _; _ } -> true
        | Graph.Ndriver { guard = None; source; _ } -> src_can_z source
      and src_can_z = function
        | Netlist.Sconst v -> Logic.equal v Logic.Noinfl
        | Netlist.Snet c -> exposed_can_z c
      in
      (* --- expressions (graph [Snet] ids are class ids) --- *)
      let src_e = function
        | Netlist.Sconst v -> lit v
        | Netlist.Snet c -> wire.(c)
      in
      let bz e = Printf.sprintf "((%s === 1'bz) ? 1'bx : %s)" e e in
      let gate_expr op (inputs : Netlist.src array) =
        let ins = Array.to_list inputs in
        let join sep =
          "(" ^ String.concat sep (List.map src_e ins) ^ ")"
        in
        match (op, ins) with
        | Netlist.Grandom, _ -> assert false (* handled by node_expr *)
        | _, [] -> (
            match op with
            | Netlist.Gequal -> "1'b1" (* empty fold base *)
            | _ ->
                raise
                  (Unsupported_exn
                     (Netlist.gate_op_to_string op ^ " gate with no inputs")))
        | Netlist.Gnot, [ s ] -> "(~" ^ src_e s ^ ")"
        | Netlist.Gnot, _ ->
            raise (Unsupported_exn "NOT gate with several inputs")
        | (Netlist.Gand | Netlist.Gor | Netlist.Gxor), [ s ] ->
            (* n-ary gates booleanize a lone operand (z reads as x);
               Verilog has no unary pass-through that does, so spell it *)
            if src_can_z s then bz (src_e s) else src_e s
        | (Netlist.Gnand | Netlist.Gnor), [ s ] -> "(~" ^ src_e s ^ ")"
        | Netlist.Gand, _ -> join " & "
        | Netlist.Gor, _ -> join " | "
        | Netlist.Gxor, _ -> join " ^ "
        | Netlist.Gnand, _ -> "(~" ^ join " & " ^ ")"
        | Netlist.Gnor, _ -> "(~" ^ join " | " ^ ")"
        | Netlist.Gequal, ins ->
            (* EQUAL concatenates the two operands' bit lists: AND of
               per-bit XNOR over the two halves *)
            let k = List.length ins in
            if k mod 2 <> 0 then
              raise (Unsupported_exn "EQUAL gate with odd input count");
            let arr = Array.of_list ins in
            let half = k / 2 in
            let pairs =
              List.init half (fun i ->
                  Printf.sprintf "(%s ~^ %s)" (src_e arr.(i))
                    (src_e arr.(i + half)))
            in
            if half = 1 then List.hd pairs
            else "(" ^ String.concat " & " pairs ^ ")"
      in
      let driver_expr guard source =
        let s = src_e source in
        match guard with
        | None -> s
        | Some (Netlist.Sconst v) -> (
            (* guards go through the implicit amplifier *)
            match Logic.booleanize v with
            | Logic.One -> s
            | Logic.Zero -> "1'bz"
            | _ -> "1'bx")
        | Some gs ->
            let ge = src_e gs in
            (* an undefined (x or z) guard *drives* UNDEF — it does not
               release the net, so the plain [g ? s : 1'bz] idiom would
               diverge from the simulator on every undefined guard *)
            Printf.sprintf
              "((%s === 1'b1) ? %s : (%s === 1'b0) ? 1'bz : 1'bx)" ge s ge
      in
      let node_expr nid =
        match g.Graph.nodes.(nid) with
        | Graph.Ngate { op = Netlist.Grandom; output; _ } -> rand_name output
        | Graph.Ngate { op; inputs; _ } -> gate_expr op inputs
        | Graph.Ndriver { guard; source; _ } -> driver_expr guard source
      in
      (* first non-z wins; any second non-z forces x — exactly
         [Logic.resolve], which conflicts even on agreeing values *)
      let resolver pws =
        let k = Array.length pws in
        let rec others j v =
          if j >= k then v
          else
            Printf.sprintf "((%s === 1'bz) ? %s : 1'bx)" pws.(j)
              (others (j + 1) v)
        in
        let rec first i =
          if i = k - 1 then pws.(i)
          else
            Printf.sprintf "((%s === 1'bz) ? %s : %s)" pws.(i)
              (first (i + 1))
              (others (i + 1) pws.(i))
        in
        first 0
      in
      (* --- emission --- *)
      let decls = Buffer.create 1024 in
      let body = Buffer.create 4096 in
      let regs_buf = Buffer.create 1024 in
      let wire_decls = ref 0 in
      let decl_wire name =
        incr wire_decls;
        Buffer.add_string decls (Printf.sprintf "  wire %s;\n" name)
      in
      let assign name e =
        Buffer.add_string body (Printf.sprintf "  assign %s = %s;\n" name e)
      in
      (* register always-blocks need the *raw* resolution of their
         input class; raw_wire.(c) names the wire that carries it *)
      let raw_wire = Array.copy wire in
      let qname =
        Array.map
          (fun (r : Netlist.reg) -> uniq (mangle r.Netlist.rpath))
          g.Graph.regs
      in
      (* one wire per class, minus the ports (port decls declare nets) *)
      Array.iteri
        (fun c w ->
          if not (is_input.(c) || is_output.(c)) then decl_wire w)
        wire;
      for l = 0 to sched.Sched.max_level do
        Array.iter
          (fun c ->
            if is_input.(c) then ()
            else if c = g.Graph.clk then
              (* the CLK *value* is the constant 1 of [seed_value]; the
                 latch edge is the separate clk port *)
              assign wire.(c) "1'b1"
            else if producerless c then begin
              let r = g.Graph.reg_of_out.(c) in
              if r >= 0 then assign wire.(c) qname.(r)
              else assign wire.(c) "1'bx"
            end
            else begin
              let producers = ref [] in
              Graph.iter_producers g c (fun nid ->
                  producers := nid :: !producers);
              let producers = Array.of_list (List.rev !producers) in
              let k = Array.length producers in
              let kind = g.Graph.class_kind.(c) in
              let latches = g.Graph.regs_of_in.(c) <> [] in
              if k = 1 then begin
                let e = node_expr producers.(0) in
                let can_z = node_can_z producers.(0) in
                match kind with
                | Etype.KMux -> assign wire.(c) e
                | Etype.KBool ->
                    if can_z then begin
                      (* exposed value booleanizes (z -> x), but the
                         register latch keys off the raw value *)
                      let rw = uniq (wire.(c) ^ "$raw") in
                      decl_wire rw;
                      raw_wire.(c) <- rw;
                      assign rw e;
                      assign wire.(c) (bz rw)
                    end
                    else begin
                      ignore latches;
                      assign wire.(c) e
                    end
              end
              else begin
                let pws =
                  Array.mapi
                    (fun i nid ->
                      let pw = uniq (Printf.sprintf "%s$p%d" wire.(c) i) in
                      decl_wire pw;
                      assign pw (node_expr nid);
                      pw)
                    producers
                in
                let r = resolver pws in
                match kind with
                | Etype.KMux -> assign wire.(c) r
                | Etype.KBool ->
                    if raw_can_z c then begin
                      let rw = uniq (wire.(c) ^ "$raw") in
                      decl_wire rw;
                      raw_wire.(c) <- rw;
                      assign rw r;
                      assign wire.(c) (bz rw)
                    end
                    else assign wire.(c) r
              end
            end)
          sched.Sched.nets_at.(l)
      done;
      (* registers: latch at the clock edge iff the raw input resolution
         is not z (all-NOINFL keeps the stored value, section 5.1);
         power-up is Verilog's default x unless REG(c) gave a value *)
      Array.iteri
        (fun i (r : Netlist.reg) ->
          let ci = g.Graph.reg_in.(i) in
          let src = raw_wire.(ci) in
          Buffer.add_string regs_buf (Printf.sprintf "  reg %s;\n" qname.(i));
          (match r.Netlist.rinit with
          | Logic.Zero | Logic.One ->
              Buffer.add_string regs_buf
                (Printf.sprintf "  initial %s = %s;\n" qname.(i)
                   (lit r.Netlist.rinit))
          | _ -> ());
          Buffer.add_string regs_buf
            (Printf.sprintf
               "  always @(posedge %s)\n    if (%s !== 1'bz) %s <= %s;\n"
               clk_port src qname.(i) src))
        g.Graph.regs;
      (* --- assemble --- *)
      let input_ports =
        List.filter_map
          (fun c ->
            if is_input.(c) then
              Some
                {
                  pdir = Input;
                  pname = wire.(c);
                  ppath =
                    (match in_path.(c) with
                    | Some p -> p
                    | None -> g.Graph.names.(c));
                  pclass = c;
                }
            else None)
          (List.init n Fun.id)
      in
      let rports =
        List.map
          (fun (c, name) ->
            {
              pdir = Input;
              pname = name;
              ppath = g.Graph.names.(c);
              pclass = c;
            })
          random_ports
      in
      let output_ports =
        List.filter_map
          (fun c ->
            if is_output.(c) then
              Some
                {
                  pdir = Output;
                  pname = wire.(c);
                  ppath =
                    (match out_path.(c) with
                    | Some p -> p
                    | None -> g.Graph.names.(c));
                  pclass = c;
                }
            else None)
          (List.init n Fun.id)
      in
      let ports =
        { pdir = Input; pname = clk_port; ppath = "CLK"; pclass = -1 }
        :: input_ports
        @ rports @ output_ports
      in
      let buf = Buffer.create (Buffer.length body + 2048) in
      Buffer.add_string buf
        (Printf.sprintf
           "// %s: structural Verilog export of a Zeus design (zeusc \
            export --verilog)\n\
            // Four-valued nets: Zeus UNDEF is x, NOINFL is z.  Drive \
            RSET low, toggle %s;\n\
            // registers latch on posedge and power up at x unless \
            REG(c) gave a value.\n"
           module_name clk_port);
      Buffer.add_string buf
        (Printf.sprintf "module %s (%s);\n" module_name
           (String.concat ", " (List.map (fun p -> p.pname) ports)));
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "  %s %s;%s\n"
               (match p.pdir with Input -> "input" | Output -> "output")
               p.pname
               (if p.pclass = -1 then
                  " // latch edge only: the Zeus CLK value is the \
                   constant-1 wire"
                else if List.mem_assoc p.pclass random_ports then
                  Printf.sprintf " // RANDOM stream of '%s'" p.ppath
                else "")))
        ports;
      Buffer.add_buffer buf decls;
      Buffer.add_buffer buf body;
      Buffer.add_buffer buf regs_buf;
      Buffer.add_string buf "endmodule\n";
      Ok
        {
          module_name;
          ports;
          net_count = List.length ports + !wire_decls;
          reg_count = Array.length g.Graph.regs;
          text = Buffer.contents buf;
          design;
          graph = g;
          wire_of_class = wire;
          clk_port;
          random_ports;
        }
    with Unsupported_exn msg -> Error (Unsupported msg)

(* ------------------------------------------------------------------ *)
(* Self-checking testbench                                              *)
(* ------------------------------------------------------------------ *)

type deck = (string * Logic.t) list list

let random_deck ?(seed = 0x5eed) ~cycles t =
  let inputs =
    List.filter
      (fun p ->
        p.pdir = Input && p.pclass >= 0
        && not (List.mem_assoc p.pclass t.random_ports))
      t.ports
  in
  List.init cycles (fun cycle ->
      List.map
        (fun p ->
          let bits = Prand.bits64 ~seed ~net:p.pclass ~cycle in
          let v =
            if Int64.equal (Int64.logand (Int64.shift_right_logical bits 1) 1L) 1L
            then Logic.One
            else Logic.Zero
          in
          (p.ppath, v))
        inputs)

let testbench ?(seed = 0x5eed) ?(tb_name = "zeus_tb") t (deck : deck) =
  let g = t.graph in
  let n = g.Graph.n_classes in
  let tb_name = if tb_name = t.module_name then tb_name ^ "$t" else tb_name in
  (* map each poke to the input port that carries it; pokes to driven
     classes are ignored exactly as [seed_value] ignores them *)
  let port_of_class = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.pdir = Input && p.pclass >= 0 then
        Hashtbl.replace port_of_class p.pclass p.pname)
    t.ports;
  let exception Bad of string in
  try
    let resolved_deck =
      List.map
        (fun pokes ->
          List.filter_map
            (fun (path, v) ->
              match Elaborate.resolve_path t.design path with
              | Error msg ->
                  raise (Bad (Printf.sprintf "poke '%s': %s" path msg))
              | Ok [ id ] ->
                  let c = g.Graph.canon.(id) in
                  if c = g.Graph.clk then
                    raise
                      (Bad
                         (Printf.sprintf
                            "poke '%s' targets the predefined CLK net" path))
                  else if g.Graph.producer_count.(c) > 0 then
                    None (* driven: the simulator ignores the poke *)
                  else (
                    match Hashtbl.find_opt port_of_class c with
                    | Some port -> Some (path, port, v)
                    | None ->
                        raise
                          (Bad
                             (Printf.sprintf
                                "poke '%s' targets an undriven net that is \
                                 not an exported input port"
                                path)))
              | Ok _ ->
                  raise
                    (Bad
                       (Printf.sprintf "poke '%s' is not a single net" path)))
            pokes)
        deck
    in
    (* the reference run: the incremental engine, poked by path exactly
       like the oracle's serial reference *)
    let sim = Sim.create ~engine:Sim.Incremental ~seed t.design in
    let expected =
      List.map
        (fun pokes ->
          List.iter (fun (path, _, v) -> Sim.poke sim path [ v ]) pokes;
          Sim.step sim;
          let snap = Sim.snapshot sim in
          String.init n (fun i ->
              (* literal bit order: MSB first is class n-1 *)
              let c = n - 1 - i in
              match snap.(g.Graph.rep.(c)) with
              | Some v -> logic_vchar v
              | None -> 'x'))
        resolved_deck
    in
    let buf = Buffer.create 8192 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "`timescale 1ns/1ns\n";
    pf "// Self-checking bench: replays a %d-cycle Zeus stimulus deck and\n"
      (List.length deck);
    pf "// compares every class wire against the incremental engine's\n";
    pf "// snapshot (seed %d) before each latch edge.\n" seed;
    pf "module %s;\n" tb_name;
    pf "  reg %s;\n" t.clk_port;
    let tb_inputs =
      List.filter (fun p -> p.pdir = Input && p.pclass >= 0) t.ports
    in
    List.iter (fun p -> pf "  reg %s;\n" p.pname) tb_inputs;
    pf "  %s dut(%s);\n" t.module_name
      (String.concat ", "
         (List.map
            (fun p ->
              match p.pdir with
              | Input -> Printf.sprintf ".%s(%s)" p.pname p.pname
              | Output -> Printf.sprintf ".%s()" p.pname)
            t.ports));
    (* one vector over every class wire, via hierarchical references *)
    pf "  wire [%d:0] zeus$vec = {" (n - 1);
    for i = 0 to n - 1 do
      let c = n - 1 - i in
      if i > 0 then pf ",";
      if i mod 6 = 0 then pf "\n     " else pf " ";
      pf "dut.%s" t.wire_of_class.(c)
    done;
    pf " };\n";
    pf "  reg [%d:0] zeus$exp;\n" (n - 1);
    pf "  integer zeus$i;\n";
    let name_w =
      Array.fold_left (fun m w -> max m (String.length w)) 1 t.wire_of_class
    in
    pf "  reg [8*%d:1] zeus$name [0:%d];\n" name_w (n - 1);
    pf "  initial begin\n";
    Array.iteri (fun c w -> pf "    zeus$name[%d] = \"%s\";\n" c w)
      t.wire_of_class;
    pf "  end\n";
    pf "  task zeus$check(input integer cycle);\n";
    pf "    begin\n";
    pf "      if (zeus$vec !== zeus$exp) begin\n";
    pf "        for (zeus$i = 0; zeus$i < %d; zeus$i = zeus$i + 1)\n" n;
    pf "          if (zeus$vec[zeus$i] !== zeus$exp[zeus$i])\n";
    pf
      "            $display(\"MISMATCH cycle %%0d class %%0d %%0s: \
       zeus=%%b verilog=%%b\",\n\
      \                     cycle, zeus$i, zeus$name[zeus$i], \
       zeus$exp[zeus$i], zeus$vec[zeus$i]);\n";
    pf "        $fatal(2, \"zeus/verilog divergence at cycle %%0d\", cycle);\n";
    pf "      end\n";
    pf "    end\n";
    pf "  endtask\n";
    pf "  initial begin\n";
    pf "    %s = 1'b0;\n" t.clk_port;
    (* power-up input values: unpoked inputs read UNDEF, RSET reads 0 *)
    List.iter
      (fun p ->
        pf "    %s = %s;\n" p.pname
          (if p.pclass = g.Graph.rset then "1'b0" else "1'bx"))
      tb_inputs;
    List.iteri
      (fun i pokes ->
        pf "    // cycle %d\n" (i + 1);
        List.iter
          (fun (_, port, v) -> pf "    %s = %s;\n" port (lit v))
          pokes;
        List.iter
          (fun (c, name) ->
            pf "    %s = %s;\n" name
              (lit (Logic.of_bool (Prand.bool ~seed ~net:c ~cycle:i))))
          t.random_ports;
        pf "    #1;\n";
        pf "    zeus$exp = %d'b%s;\n" n (List.nth expected i);
        pf "    zeus$check(%d);\n" (i + 1);
        pf "    %s = 1'b1; #1; %s = 1'b0; #1;\n" t.clk_port t.clk_port)
      resolved_deck;
    pf "    $display(\"ZEUS_TB_OK\");\n";
    pf "    $finish;\n";
    pf "  end\n";
    pf "endmodule\n";
    Ok (Buffer.contents buf)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Minimal structural reader (round-trip property)                      *)
(* ------------------------------------------------------------------ *)

type vmodule = {
  vm_name : string;
  vm_ports : (dir * string) list;
  vm_nets : int;
}

type token =
  | Tid of string
  | Tsym of char

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let i = ref 0 in
  let is_id_start c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '_' | '$' -> true | _ -> false
  in
  let is_id c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '$' -> true
    | _ -> false
  in
  while !i < n do
    let c = text.[!i] in
    if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      while
        !i + 1 < n && not (text.[!i] = '*' && text.[!i + 1] = '/')
      do
        incr i
      done;
      i := min n (!i + 2)
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\\' then begin
      (* escaped identifier: up to the next whitespace *)
      incr i;
      let start = !i in
      while
        !i < n
        && not
             (text.[!i] = ' ' || text.[!i] = '\t' || text.[!i] = '\n'
            || text.[!i] = '\r')
      do
        incr i
      done;
      toks := Tid (String.sub text start (!i - start)) :: !toks
    end
    else if is_id_start c then begin
      let start = !i in
      while !i < n && is_id text.[!i] do incr i done;
      toks := Tid (String.sub text start (!i - start)) :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      (* sized literals like 1'bz read as one ignorable token *)
      while
        !i < n
        &&
        match text.[!i] with
        | '0' .. '9' | '\'' | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
        | _ -> false
      do
        incr i
      done
    end
    else if c = '"' then begin
      incr i;
      while !i < n && text.[!i] <> '"' do incr i done;
      incr i
    end
    else begin
      toks := Tsym c :: !toks;
      incr i
    end
  done;
  List.rev !toks

let parse_module text =
  let toks = tokenize text in
  (* find the module header *)
  let rec find_module = function
    | Tid "module" :: Tid name :: rest -> Ok (name, rest)
    | _ :: rest -> find_module rest
    | [] -> Error "no module header found"
  in
  match find_module toks with
  | Error e -> Error e
  | Ok (name, rest) -> (
      let rec header acc = function
        | Tsym ')' :: Tsym ';' :: rest -> Ok (List.rev acc, rest)
        | Tid p :: rest -> header (p :: acc) rest
        | Tsym ('(' | ',') :: rest -> header acc rest
        | Tsym ';' :: rest -> Ok (List.rev acc, rest) (* portless module *)
        | _ -> Error "unparsable module header"
      in
      match header [] rest with
      | Error e -> Error e
      | Ok (port_names, rest) ->
          let dirs = Hashtbl.create 16 in
          let nets = ref 0 in
          (* declaration statement: optional range, then a comma list of
             identifiers; '=' (net decl assignment) skips to ';' *)
          let rec decl kind toks =
            match toks with
            | Tsym '[' :: rest ->
                let rec skip = function
                  | Tsym ']' :: rest -> rest
                  | _ :: rest -> skip rest
                  | [] -> []
                in
                decl kind (skip rest)
            | Tid id :: rest ->
                incr nets;
                (match kind with
                | Some d -> Hashtbl.replace dirs id d
                | None -> ());
                ids kind rest
            | rest -> rest
          and ids kind = function
            | Tsym ',' :: rest -> decl kind rest
            | Tsym ';' :: rest -> rest
            | Tsym '=' :: rest ->
                let rec skip = function
                  | Tsym ';' :: rest -> rest
                  | _ :: rest -> skip rest
                  | [] -> []
                in
                skip rest
            | _ :: rest -> ids kind rest
            | [] -> []
          in
          let rec scan = function
            | Tid "endmodule" :: _ | [] -> ()
            | Tid "input" :: rest -> scan (decl (Some Input) rest)
            | Tid "output" :: rest -> scan (decl (Some Output) rest)
            | Tid "wire" :: rest -> scan (decl None rest)
            | _ :: rest -> scan rest
          in
          scan rest;
          let missing = ref None in
          let ports =
            List.map
              (fun p ->
                match Hashtbl.find_opt dirs p with
                | Some d -> (d, p)
                | None ->
                    if !missing = None then missing := Some p;
                    (Input, p))
              port_names
          in
          (match !missing with
          | Some p ->
              Error (Printf.sprintf "port '%s' has no direction declaration" p)
          | None -> Ok { vm_name = name; vm_ports = ports; vm_nets = !nets }))
