//! Edge-case coverage for [`GraphView`] and the two-hop machinery: the
//! empty graph, a side with a single vertex, and a maximum-degree hub that
//! connects everyone to everyone.

use ricd_graph::twohop::{
    for_each_common_neighbor, item_common_neighbors, two_hop_size, user_common_neighbors,
    CommonNeighborScratch,
};
use ricd_graph::{BipartiteGraph, GraphBuilder, GraphView, ItemId, Transposed, UserId};

fn star(items: u32) -> BipartiteGraph {
    // One user clicking `items` distinct items.
    let mut b = GraphBuilder::new();
    for v in 0..items {
        b.add_click(UserId(0), ItemId(v), 1);
    }
    b.build()
}

fn hub(users: u32) -> BipartiteGraph {
    // Item 0 is a hub clicked by every user; each user also has one
    // private item, so the hub has the maximum possible degree.
    let mut b = GraphBuilder::new();
    for u in 0..users {
        b.add_click(UserId(u), ItemId(0), 1);
        b.add_click(UserId(u), ItemId(u + 1), 1);
    }
    b.build()
}

#[test]
fn empty_graph_view_is_coherent() {
    let g = GraphBuilder::new().build();
    assert_eq!(g.num_users(), 0);
    assert_eq!(g.num_items(), 0);
    let view = GraphView::full(&g);
    assert_eq!(view.alive_users(), 0);
    assert_eq!(view.alive_items(), 0);
    assert_eq!(view.users().count(), 0);
    assert_eq!(view.items().count(), 0);
    let (us, is) = view.alive_sets();
    assert!(us.is_empty() && is.is_empty());
    assert!(view.check_consistency());
    // Zero-sized scratch is constructible even when there is nothing to
    // count over.
    let _ = CommonNeighborScratch::new(0);
}

#[test]
fn restricted_view_over_empty_sets_is_empty() {
    let g = hub(4);
    let view = GraphView::restricted(&g, [], []);
    assert_eq!(view.alive_users(), 0);
    assert_eq!(view.alive_items(), 0);
    assert_eq!(view.user_degree(UserId(0)), 0);
    assert!(view.check_consistency());
}

#[test]
fn single_user_side_has_no_user_neighbors() {
    let g = star(5);
    let view = GraphView::full(&g);
    let mut scratch = CommonNeighborScratch::new(g.num_users());
    let mut seen = 0;
    for_each_common_neighbor(&view, UserId(0), &mut scratch, |_, _| seen += 1);
    assert_eq!(seen, 0, "a lone user has no two-hop user neighbors");
    assert_eq!(two_hop_size(&view, UserId(0), &mut scratch), 0);
}

#[test]
fn single_user_side_items_all_share_that_user() {
    let g = star(5);
    let view = GraphView::full(&g);
    let mut scratch = CommonNeighborScratch::new(g.num_items());
    // Every pair of items shares exactly the one user. Items are the users
    // of the transposed view.
    let items = Transposed(&view);
    let mut counts = vec![];
    for_each_common_neighbor(&items, UserId(0), &mut scratch, |o, c| counts.push((o, c)));
    assert_eq!(counts.len(), 4);
    for &(o, c) in &counts {
        assert_eq!(c, 1);
        assert_eq!(item_common_neighbors(&view, ItemId(0), ItemId(o.0)), 1);
    }
    assert_eq!(two_hop_size(&items, UserId(0), &mut scratch), 4);
}

#[test]
fn hub_connects_every_user_pair() {
    let n = 16u32;
    let g = hub(n);
    let view = GraphView::full(&g);
    assert_eq!(view.item_degree(ItemId(0)), n as usize);
    let mut scratch = CommonNeighborScratch::new(g.num_users());
    // Through the hub, user 0 reaches every other user with exactly one
    // shared item (the private items are private).
    let mut m = std::collections::HashMap::new();
    for_each_common_neighbor(&view, UserId(0), &mut scratch, |o, c| {
        m.insert(o, c);
    });
    assert_eq!(m.len(), (n - 1) as usize);
    for u in 1..n {
        assert_eq!(m[&UserId(u)], 1);
        assert_eq!(user_common_neighbors(&view, UserId(0), UserId(u)), 1);
    }
}

#[test]
fn removing_the_hub_disconnects_the_graph() {
    let n = 8u32;
    let g = hub(n);
    let mut view = GraphView::full(&g);
    view.remove_item(ItemId(0));
    assert!(view.check_consistency());
    let mut scratch = CommonNeighborScratch::new(g.num_users());
    for u in 0..n {
        assert_eq!(
            two_hop_size(&view, UserId(u), &mut scratch),
            0,
            "user {u} still reaches someone without the hub"
        );
        assert_eq!(view.user_degree(UserId(u)), 1, "only the private item left");
    }
}

#[test]
fn draining_and_restoring_every_vertex_round_trips() {
    let g = hub(6);
    let mut view = GraphView::full(&g);
    let (users, items) = view.alive_sets();
    for &u in &users {
        view.remove_user(u);
    }
    for &v in &items {
        view.remove_item(v);
    }
    assert_eq!(view.alive_users(), 0);
    assert_eq!(view.alive_items(), 0);
    assert!(view.check_consistency());
    for &v in &items {
        view.restore_item(v);
    }
    for &u in &users {
        view.restore_user(u);
    }
    assert_eq!(view.alive_users(), users.len());
    assert_eq!(view.alive_items(), items.len());
    assert_eq!(view.item_degree(ItemId(0)), 6);
    assert!(view.check_consistency());
}
