(** Levelized static schedule of the semantics graph.

    Levels order a forward pass so that every producer node is visited
    before the class it drives, and every class before the nodes that
    consume it: [level(node) = 1 + max level(input classes)] (0 with no
    net inputs), [level(class) = max level(producer nodes)] (0 with no
    producers).  The incremental engine propagates dirty cones in level
    order; the drive-conflict re-propagation pass of the other engines
    reuses the same order. *)

type t = {
  node_level : int array;
      (** per node; -1 when the node sits in (or downstream of) a
          combinational cycle — only on designs that failed the static
          checks *)
  net_level : int array;  (** per class; -1 when cyclic *)
  max_level : int;
  acyclic : bool;  (** every node and class received a level *)
  nodes_at : int array array;
      (** static membership: node ids of each level, ascending — the
          compiled engine's lowering order; cyclic items omitted *)
  nets_at : int array array;  (** class ids of each level, ascending *)
}

val build : Zeus_sem.Graph.t -> t
