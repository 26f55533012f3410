// Tests for the whole-repository static auditor (DESIGN.md §11).
//
// The acceptance fixture plants exactly three repository bugs — a refuted
// can_splice claim, an unsatisfiable depends_on(when=), and a provider-less
// virtual — and the golden-JSON test pins the auditor to report exactly
// those three error-severity findings, nothing more.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <regex>
#include <string>
#include <vector>

#include "src/analysis/audit.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/trace.hpp"
#include "src/workload/radiuss.hpp"
#include "src/workload/synthbin.hpp"

namespace splice::analysis {
namespace {

using binary::MockBinary;
using repo::PackageDef;
using repo::Repository;
using spec::Spec;

Spec concrete_node(const std::string& name, const std::string& version) {
  Spec s = Spec::parse(name + "@=" + version + " os=linux target=x86_64");
  s.finalize_concrete();
  return s;
}

MockBinary bin_with_exports(const std::string& name, const std::string& version,
                            std::vector<std::string> exports) {
  MockBinary b;
  b.name = name;
  b.version = version;
  b.hash = "h_" + name + "_" + version;
  b.soname = "/s/" + name + "/lib/lib" + name + ".so";
  b.exports = std::move(exports);
  b.code = "x";
  return b;
}

/// The acceptance fixture: three planted bugs, everything else healthy.
Repository fixture_repo() {
  Repository repo;
  repo.declare_virtual("vmath");  // bug 3: no provider will ever be added
  repo.add(PackageDef("app")
               .version("1.0")
               .version("2.0")
               // bug 2: when= range @3: admits no declared version of app
               .depends_on("zlib", "@3:")
               .depends_on("vmath"));
  repo.add(PackageDef("zlib").version("1.2.11"));
  // bug 1: vendor-blas claims it can replace openblas, but its binary
  // exports a strict subset of openblas's symbol surface.
  repo.add(PackageDef("vendor-blas").version("1.0").can_splice("openblas@0.3.21"));
  repo.add(PackageDef("openblas").version("0.3.21"));
  return repo;
}

RepoAuditor fixture_auditor(const Repository& repo, AuditOptions opts = {}) {
  RepoAuditor auditor(repo, opts);
  auditor.add_binary(concrete_node("vendor-blas", "1.0"),
                     bin_with_exports("vendor-blas", "1.0", {"blas_init"}));
  auditor.add_binary(concrete_node("openblas", "0.3.21"),
                     bin_with_exports("openblas", "0.3.21",
                                      {"blas_call", "blas_init"}));
  return auditor;
}

TEST(AuditFixture, ExactlyThreePlantedErrors) {
  Repository repo = fixture_repo();
  RepoAuditor auditor = fixture_auditor(repo);
  AuditReport report = auditor.run();

  EXPECT_EQ(report.count(Severity::Error), 3u) << report.str();
  EXPECT_EQ(report.count(CheckId::WhenUnsatisfiableVersion), 1u);
  EXPECT_EQ(report.count(CheckId::VirtualNoProvider), 1u);
  EXPECT_EQ(report.count(CheckId::SpliceRefuted), 1u);
  EXPECT_TRUE(report.has_errors());
  // A broken repo skips the encoding cross-check entirely.
  EXPECT_EQ(report.encoding_programs, 0u);
  EXPECT_EQ(report.packages_audited, 4u);
  EXPECT_EQ(report.virtuals_audited, 1u);
  EXPECT_EQ(report.splice_directives, 1u);
  EXPECT_EQ(report.binaries_scanned, 2u);
}

/// The golden repo-audit-v1 document for the fixture, with findings
/// filtered to error severity and brittle source line numbers zeroed.
TEST(AuditFixture, GoldenErrorJson) {
  Repository repo = fixture_repo();
  AuditReport report = fixture_auditor(repo).run();

  json::Value doc = report.to_json();
  json::Array errors_only;
  for (json::Value& item : doc["findings"].as_array()) {
    if (item["severity"].as_string() != "error") continue;
    json::Object& source = item["source"].as_object();
    if (source.contains("line")) source["line"] = std::int64_t{0};
    errors_only.push_back(std::move(item));
  }
  doc["findings"] = std::move(errors_only);

  const std::string expected =
      R"x({"schema":"repo-audit-v1",)x"
      R"x("repo":{"packages":4,"virtuals":1,"splice_directives":1,)x"
      R"x("binaries":2,"encoding_programs":0},)x"
      R"x("summary":{"errors":3,"warnings":0,"infos":1,"clean":false},)x"
      R"x("findings":[)x"
      R"x({"id":"when-unsatisfiable-version","severity":"error",)x"
      R"x("package":"app","directive":"depends_on",)x"
      R"x("message":"when= version '@3:' on 'app' matches none of its )x"
      R"x(declared versions (1.0, 2.0)",)x"
      R"x("source":{"known":true,"index":2,"file":"repo_audit_test.cpp",)x"
      R"x("line":0},"related":["app@3:"]},)x"
      R"x({"id":"virtual-no-provider","severity":"error",)x"
      R"x("package":"vmath","directive":"",)x"
      R"x("message":"virtual 'vmath' has no provider in this repo )x"
      R"x((1 package(s) depend on it)",)x"
      R"x("source":{"known":false,"index":0},"related":["app"]},)x"
      R"x({"id":"splice-refuted","severity":"error",)x"
      R"x("package":"vendor-blas","directive":"can_splice",)x"
      R"x("message":"can_splice('openblas@0.3.21', when=<always>) is refuted )x"
      R"x(by the binaries: 1 of 1 candidate pair(s) lack exported symbols the )x"
      R"x(target provides (e.g. vendor-blas@1.0 -> openblas@0.3.21 missing: )x"
      R"x(blas_call)",)x"
      R"x("source":{"known":true,"index":1,"file":"repo_audit_test.cpp",)x"
      R"x("line":0},"related":["blas_call"]}]})x";
  EXPECT_EQ(doc.dump(), expected);
}

TEST(AuditFixture, HumanRenderingCarriesLocations) {
  Repository repo = fixture_repo();
  AuditReport report = fixture_auditor(repo).run();
  std::string text = report.str();
  EXPECT_NE(text.find("error: when-unsatisfiable-version "
                      "[app depends_on @ repo_audit_test.cpp:"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("error: virtual-no-provider [vmath]"), std::string::npos);
  EXPECT_NE(text.find("error: splice-refuted "
                      "[vendor-blas can_splice @ repo_audit_test.cpp:"),
            std::string::npos);
  EXPECT_NE(text.find("3 error(s), 0 warning(s), 1 info(s)"),
            std::string::npos);
}

/// The --quiet contract: findings_str() is every finding line and nothing
/// else (no summary), summary_str() is the single trailing line, and str()
/// is exactly their concatenation.
TEST(AuditFixture, QuietRenderingIsFindingsOnly) {
  Repository repo = fixture_repo();
  AuditReport report = fixture_auditor(repo).run();

  std::string findings = report.findings_str();
  std::string summary = report.summary_str();
  EXPECT_EQ(report.str(), findings + summary);
  // One line per finding, each starting with its severity, none of them the
  // summary line.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(findings.begin(), findings.end(), '\n')),
            report.findings.size());
  EXPECT_EQ(findings.find("audited "), std::string::npos);
  EXPECT_EQ(findings.find("error: when-unsatisfiable-version"), 0u);
  // The summary is exactly one line and carries the counts.
  EXPECT_EQ(summary.find("audited 4 package(s)"), 0u);
  EXPECT_NE(summary.find("3 error(s), 0 warning(s), 1 info(s)\n"),
            std::string::npos);
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'), 1);

  // An empty report renders an empty findings block.
  AuditReport empty;
  EXPECT_EQ(empty.findings_str(), "");
  EXPECT_EQ(empty.str(), empty.summary_str());
}

TEST(Audit, CheckIdStringsRoundTrip) {
  for (std::uint8_t raw = 0;
       raw <= static_cast<std::uint8_t>(CheckId::EncodingWarning); ++raw) {
    CheckId id = static_cast<CheckId>(raw);
    CheckId back;
    ASSERT_TRUE(check_id_from_str(check_id_str(id), back))
        << check_id_str(id);
    EXPECT_EQ(back, id);
  }
  CheckId out;
  EXPECT_FALSE(check_id_from_str("no-such-check", out));
  EXPECT_FALSE(check_id_from_str("", out));
}

TEST(Audit, FindingJsonRoundTrips) {
  Repository repo = fixture_repo();
  AuditReport report = fixture_auditor(repo).run();
  ASSERT_GT(report.findings.size(), 0u);
  for (const Finding& f : report.findings) {
    Finding back;
    ASSERT_TRUE(Finding::from_json(f.to_json(), back)) << f.str();
    EXPECT_EQ(back.id, f.id);
    EXPECT_EQ(back.severity, f.severity);
    EXPECT_EQ(back.package, f.package);
    EXPECT_EQ(back.directive, f.directive);
    EXPECT_EQ(back.message, f.message);
    EXPECT_EQ(back.loc.file, f.loc.file);
    EXPECT_EQ(back.loc.line, f.loc.line);
    EXPECT_EQ(back.loc.index, f.loc.index);
    EXPECT_EQ(back.related, f.related);
    EXPECT_EQ(back.to_json().dump(), f.to_json().dump());
  }
  Finding out;
  EXPECT_FALSE(Finding::from_json(json::Value("not an object"), out));
  EXPECT_FALSE(Finding::from_json(json::parse(R"({"id":"bogus-check",)"
                                              R"("package":"p","directive":"",)"
                                              R"("message":"m"})"),
                                  out));
}

TEST(Audit, RadiussWithSyntheticSurfacesIsClean) {
  repo::Repository repo = workload::radiuss_repo();
  RepoAuditor auditor(repo);
  for (auto& [s, b] : workload::synthetic_surface_binaries(
           repo, workload::radiuss_abi_surface)) {
    auditor.add_binary(s, std::move(b));
  }
  EXPECT_GT(auditor.num_binaries(), 0u);
  AuditReport report = auditor.run();
  EXPECT_EQ(report.count(Severity::Error), 0u) << report.str();
  EXPECT_EQ(report.count(Severity::Warning), 0u) << report.str();
  // mpiabi's one can_splice verifies against the shared mpi surface; the
  // reciprocal direction holds too but mpich declares no back-claim.
  EXPECT_EQ(report.count(CheckId::SpliceAsymmetric), 1u);
  EXPECT_GE(report.count(CheckId::SpliceUndeclared), 1u);
  // With a healthy repo the encoding cross-check runs for every package.
  EXPECT_EQ(report.encoding_programs, report.packages_audited);
}

TEST(Audit, EncodingCrossCheckGroundsNoBase) {
  // The cross-check lints compiled programs: it never grounds a slice base.
  repo::Repository repo = workload::radiuss_repo();
  trace::MetricsRegistry& m = trace::Tracer::global().metrics();
  std::int64_t bytes = m.counter("concretize/ground_base_bytes");
  AuditReport report = RepoAuditor(repo).run();
  EXPECT_GT(report.encoding_programs, 0u);
  EXPECT_EQ(m.counter("concretize/ground_base_bytes"), bytes);
}

TEST(Audit, EncodingCheckCanBeDisabled) {
  repo::Repository repo = workload::radiuss_repo();
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.encoding_programs, 0u);
  EXPECT_EQ(report.count(Severity::Error), 0u) << report.str();
}

TEST(Audit, SpliceGroupSkippedWithoutBinaries) {
  Repository repo;
  repo.add(PackageDef("a").version("1.0").can_splice("b@1.0"));
  repo.add(PackageDef("b").version("1.0"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::SpliceUnexercised), 0u);
  EXPECT_EQ(report.findings.size(), 0u) << report.str();
}

TEST(Audit, UnknownVariantAndInvalidValue) {
  Repository repo;
  repo.add(PackageDef("zlib").version("1.2").variant("opt", "small",
                                                     {"small", "fast"}));
  repo.add(PackageDef("app")
               .version("1.0")
               .depends_on("zlib", "+shiny")          // app has no 'shiny'
               .conflicts("zlib opt=huge"));          // not an allowed value
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::WhenUnknownVariant), 1u) << report.str();
  EXPECT_EQ(report.count(CheckId::TargetInvalidVariantValue), 1u)
      << report.str();
}

TEST(Audit, UnknownTargetPackage) {
  Repository repo;
  repo.add(PackageDef("app").version("1.0").depends_on("nosuchlib"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::TargetUnknownPackage), 1u) << report.str();
  EXPECT_EQ(report.findings[0].severity, Severity::Error);
}

TEST(Audit, ContradictoryAndDuplicateDeps) {
  Repository repo;
  repo.add(PackageDef("zlib").version("1.2").version("2.0"));
  repo.add(PackageDef("app")
               .version("1.0")
               .variant("a", false)
               .variant("b", false)
               // both conditions can hold at once; targets cannot intersect
               .depends_on("zlib@:1.2", "+a")
               .depends_on("zlib@2.0:", "+b")
               // textually identical pair
               .depends_on("zlib@2.0:", "+b"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::ContradictoryDeps), 2u) << report.str();
  EXPECT_EQ(report.count(CheckId::DuplicateDirective), 1u) << report.str();
  EXPECT_EQ(severity_of(CheckId::ContradictoryDeps), Severity::Warning);
}

TEST(Audit, UnreachableDep) {
  Repository repo;
  repo.add(PackageDef("extra").version("1.0"));
  repo.add(PackageDef("app")
               .version("1.0")
               .variant("debug", false)
               .conflicts("app+debug")
               .depends_on("extra", "+debug"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::UnreachableDep), 1u) << report.str();
}

TEST(Audit, ProviderCycleAndAmbiguousDefault) {
  Repository repo;
  repo.add(PackageDef("prov1").version("1.0").provides("v").depends_on("mid"));
  repo.add(PackageDef("prov2").version("1.0").provides("v"));
  repo.add(PackageDef("mid").version("1.0").depends_on("v"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::ProviderCycle), 1u) << report.str();
  EXPECT_EQ(report.count(CheckId::AmbiguousDefaultProvider), 1u);
  // The cycle names the provider; the ambiguity lists both providers.
  for (const Finding& f : report.findings) {
    if (f.id == CheckId::ProviderCycle) {
      EXPECT_EQ(f.package, "prov1");
    }
    if (f.id == CheckId::AmbiguousDefaultProvider) {
      EXPECT_EQ(f.related, (std::vector<std::string>{"prov1", "prov2"}));
    }
  }
}

TEST(Audit, SpliceVirtualTargetIsAnError) {
  Repository repo;
  repo.add(PackageDef("mpich").version("3.4").provides("mpi"));
  repo.add(PackageDef("shim").version("1.0").can_splice("mpi"));
  AuditOptions opts;
  opts.encoding_checks = false;
  AuditReport report = RepoAuditor(repo, opts).run();
  EXPECT_EQ(report.count(CheckId::SpliceVirtualTarget), 1u) << report.str();
}

TEST(Audit, SpliceUnexercisedWhenTargetHasNoBinary) {
  Repository repo;
  repo.add(PackageDef("a").version("1.0").can_splice("b@1.0"));
  repo.add(PackageDef("b").version("1.0"));
  AuditOptions opts;
  opts.encoding_checks = false;
  RepoAuditor auditor(repo, opts);
  auditor.add_binary(concrete_node("a", "1.0"),
                     bin_with_exports("a", "1.0", {"f"}));
  AuditReport report = auditor.run();
  EXPECT_EQ(report.count(CheckId::SpliceUnexercised), 1u) << report.str();
  EXPECT_EQ(report.findings[0].severity, Severity::Info);
}

TEST(Audit, AsymmetricAndUndeclaredSuggestions) {
  Repository repo;
  repo.add(PackageDef("a").version("1.0").can_splice("b@1.0"));
  repo.add(PackageDef("b").version("1.0"));
  AuditOptions opts;
  opts.encoding_checks = false;
  RepoAuditor auditor(repo, opts);
  // Identical surfaces: a's claim verifies, the reverse holds too, but b
  // declares nothing — one asymmetric info on a, one undeclared info on b.
  auditor.add_binary(concrete_node("a", "1.0"),
                     bin_with_exports("a", "1.0", {"f", "g"}));
  auditor.add_binary(concrete_node("b", "1.0"),
                     bin_with_exports("b", "1.0", {"f", "g"}));
  AuditReport report = auditor.run();
  EXPECT_EQ(report.count(Severity::Error), 0u) << report.str();
  EXPECT_EQ(report.count(CheckId::SpliceAsymmetric), 1u) << report.str();
  EXPECT_EQ(report.count(CheckId::SpliceUndeclared), 1u) << report.str();
  for (const Finding& f : report.findings) {
    if (f.id == CheckId::SpliceAsymmetric) {
      EXPECT_EQ(f.package, "a");
    }
    if (f.id == CheckId::SpliceUndeclared) {
      EXPECT_EQ(f.package, "b");
    }
  }
}

TEST(Audit, AddBinaryRejectsAbstractSpec) {
  Repository repo;
  repo.add(PackageDef("a").version("1.0"));
  RepoAuditor auditor(repo);
  EXPECT_THROW(
      auditor.add_binary(Spec::parse("a@1.0"), bin_with_exports("a", "1.0", {})),
      Error);
}

TEST(Audit, CheckIdStringsAndSeveritiesAreStable) {
  EXPECT_EQ(check_id_str(CheckId::SpliceRefuted), "splice-refuted");
  EXPECT_EQ(check_id_str(CheckId::WhenUnsatisfiableVersion),
            "when-unsatisfiable-version");
  EXPECT_EQ(check_id_str(CheckId::VirtualNoProvider), "virtual-no-provider");
  EXPECT_EQ(check_id_str(CheckId::EncodingError), "encoding-error");
  EXPECT_EQ(severity_of(CheckId::SpliceRefuted), Severity::Error);
  EXPECT_EQ(severity_of(CheckId::SpliceUndeclared), Severity::Info);
  EXPECT_EQ(severity_of(CheckId::DuplicateDirective), Severity::Warning);
  EXPECT_EQ(severity_str(Severity::Error), "error");
  EXPECT_EQ(severity_str(Severity::Info), "info");
}

TEST(Audit, SyntheticSurfacesCoverEveryDeclaredVersion) {
  repo::Repository repo = workload::radiuss_repo();
  auto bins = workload::synthetic_surface_binaries(
      repo, workload::radiuss_abi_surface);
  std::size_t declared = 0;
  for (const std::string& name : repo.package_names()) {
    declared += repo.get(name).versions().size();
  }
  EXPECT_EQ(bins.size(), declared);
  for (const auto& [s, b] : bins) {
    EXPECT_TRUE(s.is_concrete()) << s.str();
    EXPECT_FALSE(b.exports.empty()) << b.name;
  }
}

}  // namespace
}  // namespace splice::analysis
