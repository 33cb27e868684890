(** K-feasible cut enumeration on AIGs.

    A cut of node [n] is a set of nodes (leaves) such that every path from
    [n] to a primary input passes through a leaf. Cuts drive both the
    rewriting passes and the technology mapper. *)

type cut = { leaves : int array }
(** Leaf node ids, sorted ascending. The trivial cut of [n] is [{n}]. *)

val enumerate : Aig.t -> k:int -> max_cuts:int -> cut array array
(** [enumerate t ~k ~max_cuts] computes for every node a set of cuts with at
    most [k] leaves, keeping at most [max_cuts] cuts per node. Constant and
    input nodes get only their trivial cut. For an AND node the candidates
    are the pairwise unions of its fanins' cuts with at most [k] leaves,
    ordered by size, then lexicographically by leaf ids. Duplicates and
    dominated candidates (strict supersets of another candidate) are
    dropped, the first [max_cuts - 1] survivors are kept in that order, and
    the trivial cut comes last.

    @raise Invalid_argument if [k < 1] or [max_cuts < 1]. *)

val cut_tt : Aig.t -> int -> cut -> Logic.Truthtable.t
(** Function of the node in terms of the cut leaves (variable [i] = leaf
    [i]). *)

val mffc_size : Aig.t -> int array -> int -> cut -> int
(** [mffc_size t fanouts node cut] counts the AND nodes in the cone of
    [node] above the cut that are referenced only from inside that cone —
    the nodes that would die if [node] were re-expressed directly in terms
    of the cut leaves. [fanouts] comes from {!Aig.fanout_counts}. *)
