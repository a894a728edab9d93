#include "common/cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tmcc::cli
{

std::optional<std::string>
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v ? std::optional<std::string>(v) : std::nullopt;
}

std::string
usage(const std::string &header, const std::vector<Flag> &flags)
{
    constexpr std::size_t column = 24, width = 78;
    std::string out = header + "\nOptions:\n";
    const auto entry = [&](const std::string &lead,
                           const std::string &help) {
        std::string line = "  " + lead;
        if (line.size() >= column) {
            out += line + "\n";
            line.clear();
        }
        std::istringstream words(help);
        for (std::string w; words >> w;) {
            if (line.size() > column && line.size() + 1 + w.size() > width) {
                out += line + "\n";
                line.clear();
            }
            line.resize(std::max(line.size() + 1, column), ' ');
            line += w;
        }
        out += line + "\n";
    };
    for (const Flag &f : flags)
        entry(f.metavar.empty() ? f.name : f.name + " " + f.metavar,
              f.env.empty() ? f.help : f.help + " (env: " + f.env + ")");
    entry("-h, --help", "print this help and exit");
    return out;
}

void
parse(const std::string &header, const std::vector<Flag> &flags, int argc,
      const char *const *argv)
{
    for (const Flag &f : flags)
        if (!f.env.empty())
            if (const auto v = envValue(f.env.c_str()))
                f.set(f.env, {*v});

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(header, flags).c_str(), stdout);
            std::exit(0);
        }
        const std::size_t eq =
            arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
        const std::string name = arg.substr(0, eq);
        const auto row =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (row == flags.end())
            fatal("unknown option " + arg + " (try --help)");
        // One value per metavar word.
        const std::string &meta = row->metavar;
        const std::size_t arity =
            meta.empty() ? 0 : 1 + std::count(meta.begin(), meta.end(), ' ');
        Values values;
        if (eq != std::string::npos) {
            if (arity == 0)
                fatal(name + " takes no value");
            values.push_back(arg.substr(eq + 1));
        }
        while (values.size() < arity) {
            if (i + 1 >= argc)
                fatal(name + " needs a value");
            values.push_back(argv[++i]);
        }
        row->set(name, values);
    }
}

} // namespace tmcc::cli
