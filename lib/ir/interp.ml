exception Runtime_error of string

let runtime_error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

open Relation

type store = (string, Table.t) Hashtbl.t

let store_of_list bindings =
  let store = Hashtbl.create (List.length bindings) in
  List.iter (fun (name, table) -> Hashtbl.replace store name table) bindings;
  store

let eval_kind (kind : Operator.kind) (inputs : Table.t list) =
  match kind, inputs with
  | Operator.Select { pred }, [ t ] -> Kernel.select t pred
  | Operator.Project { columns }, [ t ] -> Kernel.project t columns
  | Operator.Map { target; expr }, [ t ] -> Kernel.map_column t ~target ~expr
  | Operator.Join { left_key; right_key }, [ l; r ] ->
    Kernel.join l r ~left_key ~right_key
  | Operator.Left_outer_join { left_key; right_key; defaults }, [ l; r ] ->
    Kernel.left_outer_join l r ~left_key ~right_key ~defaults
  | Operator.Semi_join { left_key; right_key }, [ l; r ] ->
    Kernel.semi_join l r ~left_key ~right_key
  | Operator.Anti_join { left_key; right_key }, [ l; r ] ->
    Kernel.anti_join l r ~left_key ~right_key
  | Operator.Cross, [ l; r ] -> Kernel.cross_join l r
  | Operator.Union, [ l; r ] -> Kernel.union_all l r
  | Operator.Intersect, [ l; r ] -> Kernel.intersect l r
  | Operator.Difference, [ l; r ] -> Kernel.difference l r
  | Operator.Distinct, [ t ] -> Kernel.distinct t
  | Operator.Group_by { keys; aggs }, [ t ] -> Kernel.group_by t ~keys ~aggs
  | Operator.Agg { aggs }, [ t ] -> Kernel.group_by t ~keys:[] ~aggs
  | Operator.Sort { by; descending }, [ t ] -> Table.sort_by ~descending t [ by ]
  | Operator.Top_k { by; descending; k }, [ t ] ->
    Kernel.top_k t ~by ~descending ~k
  | Operator.Udf u, ts ->
    if List.length ts <> u.arity then
      runtime_error "UDF %s expects %d inputs, got %d" u.udf_name u.arity
        (List.length ts);
    u.fn ts
  | Operator.Input _, _ ->
    runtime_error "eval_kind: INPUT must be resolved by the caller"
  | Operator.While _, _ ->
    runtime_error "eval_kind: WHILE must be expanded by the caller"
  | Operator.Black_box { description; _ }, _ ->
    runtime_error "black-box operator cannot be interpreted (%s)" description
  | ( Operator.Select _ | Operator.Project _ | Operator.Map _
    | Operator.Join _ | Operator.Left_outer_join _ | Operator.Semi_join _
    | Operator.Anti_join _ | Operator.Cross | Operator.Union
    | Operator.Intersect | Operator.Difference | Operator.Distinct
    | Operator.Group_by _ | Operator.Agg _ | Operator.Sort _
    | Operator.Top_k _ ), _ ->
    runtime_error "%s: wrong number of inputs (%d)" (Operator.kind_name kind)
      (List.length inputs)

let loop ~bind ~pass ~table ~condition ~max_iterations (body : Operator.graph)
    inputs =
  (* each body INPUT's current value, for the fixpoint test *)
  let bound = Hashtbl.create 4 in
  let rebind r v =
    Hashtbl.replace bound r v;
    bind r v
  in
  List.iter2
    (fun (n : Operator.node) v ->
       match n.kind with
       | Operator.Input { relation } -> rebind relation v
       | _ -> assert false)
    (Dag.sources body) inputs;
  let first = (Dag.node body (List.hd body.outputs)).output in
  let rec iterate i =
    let find = pass i in
    let renewed r = table (find (List.assoc r body.carried)) in
    let finished =
      Obs.Trace.with_span
        ~attrs:[ ("iteration", Obs.Trace.Int i) ]
        "while.test"
      @@ fun () ->
      i >= max_iterations
      ||
      match condition with
      | Operator.Fixed_iterations n -> i >= n
      | Operator.Until_empty r -> Table.is_empty (renewed r)
      | Operator.Until_fixpoint r ->
        Table.equal_unordered (renewed r) (table (Hashtbl.find bound r))
    in
    List.iter (fun (old, next) -> rebind old (find next)) body.carried;
    if finished then (find first, i) else iterate (i + 1)
  in
  iterate 1

let rec eval ~lookup (g : Dag.t) =
  let values : (int, Table.t) Hashtbl.t = Hashtbl.create 16 in
  let bindings = ref [] in
  List.iter
    (fun (n : Operator.node) ->
       let input_tables =
         List.map
           (fun i ->
              match Hashtbl.find_opt values i with
              | Some t -> t
              | None -> runtime_error "internal: node %d not yet evaluated" i)
           n.inputs
       in
       let result =
         match n.kind with
         | Operator.Input { relation } -> (
           match lookup relation with
           | Some t -> t
           | None -> runtime_error "missing input relation %S" relation)
         | Operator.While { condition; max_iterations; body } ->
           (* a pass sees the loop's bindings over the enclosing ones *)
           let bound = Hashtbl.create 8 in
           let lookup r =
             match Hashtbl.find_opt bound r with
             | Some t -> Some t
             | None -> lookup r
           in
           let pass _ =
             let bindings = eval ~lookup body in
             fun r -> List.assoc r bindings
           in
           fst
             (loop ~bind:(Hashtbl.replace bound) ~pass ~table:Fun.id
                ~condition ~max_iterations body input_tables)
         | _ -> eval_kind n.kind input_tables
       in
       Hashtbl.replace values n.id result;
       bindings := (n.output, result) :: !bindings)
    g.nodes;
  List.rev !bindings

let run ~store g = eval ~lookup:(Hashtbl.find_opt store) g

let outputs ~store g =
  let bindings = run ~store g in
  List.map
    (fun id ->
       let name = (Dag.node g id).Operator.output in
       (name, List.assoc name (List.rev bindings)))
    g.Operator.outputs
