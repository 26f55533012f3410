// Specs: Spack's build-configuration descriptions (paper §3.1).
//
// A Spec is a DAG of nodes, each carrying the six attributes the paper
// lists: package name, version, variant values, target OS, target
// microarchitecture, and dependency edges.  Edges are typed `build` or
// `link` (the paper's link-run class).  Abstract specs leave attributes
// unconstrained; concrete specs pin all of them and carry a DAG hash.
//
// The spec grammar follows Table 1 of the paper:
//
//   hdf5@1.14.5 +cxx ~mpi api=default target=icelake %gcc ^zlib@1.2
//
// Spliced specs additionally carry a *build spec* (paper §4.1): the spec
// describing how the binary was actually produced, attached to every node
// whose dependencies were rewritten by a splice.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/spec/version.hpp"
#include "src/support/json.hpp"

namespace splice::spec {

enum class DepType : std::uint8_t {
  Build,  ///< needed only to run the build (compilers, cmake, ...)
  Link,   ///< the paper's "link-run": needed at link time and at runtime
};

std::string_view dep_type_str(DepType t);

struct DepEdge {
  std::size_t child;  ///< index into Spec::nodes()
  DepType type;
};

class Spec;

/// One package node in a spec DAG.
struct SpecNode {
  std::string name;

  /// Version constraint; for a concrete node this is a single "@=v" range.
  VersionConstraint versions;

  /// Variant name -> value ("true"/"false" for boolean variants).
  std::map<std::string, std::string> variants;

  std::optional<std::string> os;
  std::optional<std::string> target;

  std::vector<DepEdge> deps;

  /// DAG hash of the subgraph rooted here; set by Spec::finalize_concrete().
  std::string hash;

  /// Build provenance: for nodes whose dependencies were changed by a
  /// splice, the spec describing how the binary was actually built
  /// (paper §4.1).  Null for ordinary nodes.
  std::shared_ptr<const Spec> build_spec;

  /// The concrete version, when exactly pinned.
  std::optional<Version> concrete_version() const { return versions.concrete(); }
};

/// A spec DAG.  Node 0 is the root.  Within the link-run subgraph package
/// names are unique (one configuration of each package per DAG, paper §1).
class Spec {
 public:
  Spec() = default;

  /// Parse spec syntax (Table 1).  The result is abstract unless the text
  /// pins everything (rare).  Throws ParseError on malformed input.
  static Spec parse(std::string_view text);

  /// Build a single-node abstract spec.
  static Spec make(std::string_view name);

  const std::vector<SpecNode>& nodes() const { return nodes_; }
  std::vector<SpecNode>& nodes() { return nodes_; }
  const SpecNode& root() const { return nodes_.at(0); }
  SpecNode& root() { return nodes_.at(0); }
  bool empty() const { return nodes_.empty(); }

  /// Find the unique node with `name` anywhere in the DAG; nullptr if absent.
  const SpecNode* find(std::string_view name) const;
  SpecNode* find(std::string_view name);
  std::optional<std::size_t> find_index(std::string_view name) const;

  /// Append a node; returns its index.  The caller wires edges.
  std::size_t add_node(SpecNode node);
  void add_dep(std::size_t parent, std::size_t child, DepType type);

  /// A spec is concrete when every node has an exact version, values for
  /// os/target, and a hash.
  bool is_concrete() const;

  /// Compute Merkle DAG hashes bottom-up over the canonical node
  /// serialization and stamp every node; requires exact versions everywhere.
  /// Build provenance is not hashed: a spliced spec and an identically
  /// configured built-from-source spec share a hash (they are
  /// interchangeable at runtime), build_spec records how this one was made.
  void finalize_concrete();

  /// Root hash shorthand; empty when not finalized.
  const std::string& dag_hash() const { return root().hash; }

  /// True if any node carries build provenance, i.e. was spliced.
  bool is_spliced() const;

  /// `this` satisfies `constraint` if every constraint node has a
  /// same-named node in this DAG whose attributes satisfy it (node-wise
  /// version/variant/os/target containment).  Matches the paper's use:
  /// T ^H' ^Z@1.0 is satisfied by a DAG containing those nodes.
  bool satisfies(const Spec& constraint) const;

  /// True if some spec could satisfy both this and `other` (name-wise
  /// attribute intersection; conservative).
  bool intersects(const Spec& other) const;

  /// Merge the constraints of `other` into this abstract spec.
  /// Throws SpecError when the merge is contradictory.
  void constrain(const Spec& other);

  /// Topological order (children before parents).
  std::vector<std::size_t> topological_order() const;

  /// Deep copy of the sub-DAG rooted at `node`.
  Spec subdag(std::size_t node) const;

  /// Spec syntax rendering (one line, root attributes then ^deps).
  std::string str() const;

  /// Indented multi-line tree rendering for humans.
  std::string tree() const;

  /// JSON (de)serialization, used by buildcaches and the install DB.
  json::Value to_json() const;
  static Spec from_json(const json::Value& v);

  friend bool operator==(const Spec& a, const Spec& b) {
    return a.to_json() == b.to_json();
  }

 private:
  std::string node_str(std::size_t i) const;

  std::vector<SpecNode> nodes_;
};

/// Node-level satisfaction: does a node with `have`'s attributes satisfy the
/// constraints in `want`?  (Same name required; missing attributes in `want`
/// are unconstrained.)
bool node_satisfies(const SpecNode& have, const SpecNode& want);

/// Node-level intersection test.
bool node_intersects(const SpecNode& a, const SpecNode& b);

}  // namespace splice::spec
